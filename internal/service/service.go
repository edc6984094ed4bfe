// Package service turns the experiment engine into a job-oriented
// suite service: a Manager accepts experiment.Specs, deduplicates them
// by canonical content hash (the job ID), runs them on a bounded
// worker pool that shares one core.Cache across jobs, and exposes
// Status / Result / Events / Cancel / List. Every job keeps a
// persisted event log, so progress is replayable by subscribers that
// arrive mid-run or after completion — the contract the HTTP façade's
// SSE stream (NewHandler) and the Go client (Client) are built on.
//
// The execution semantics are exactly Engine.Run's: one engine per
// job, all engines sharing the manager's cache via
// experiment.WithCache — the concurrency pattern pinned by the
// engine's shared-cache race test. The service only adds ownership:
// who queues, observes, cancels, and remembers runs.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/store"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the job has stopped moving: its log is
// complete and Result/Report will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors mapped to HTTP statuses by the façade.
var (
	ErrNotFound    = errors.New("service: no such job")
	ErrNotFinished = errors.New("service: job has not finished")
	ErrQueueFull   = errors.New("service: job queue is full")
	ErrClosed      = errors.New("service: manager is shut down")
)

// Config tunes a Manager. The zero value selects the defaults.
type Config struct {
	// Workers bounds the number of suites running concurrently
	// (default 2). Each job still parallelises internally per its
	// spec's Workers field, so this is jobs-in-flight, not CPU fan-out.
	Workers int
	// QueueDepth bounds the jobs waiting behind the pool (default 64);
	// Submit returns ErrQueueFull beyond it rather than blocking.
	QueueDepth int
	// Cache is the crafted-batch/prediction cache shared by every job
	// (default: a fresh core.NewCache). Sharing is the point: identical
	// cells across queued suites — the eps=0 clean row, overlapping
	// sweeps — are crafted once for the whole service.
	Cache *core.Cache
	// ModelSource overrides the engines' model resolver (default
	// modelzoo.Get) — tests inject small purpose-trained fixtures.
	ModelSource func(context.Context, string) (*modelzoo.Model, error)
	// MaxJobs bounds how many jobs — and their event logs and reports
	// — the manager retains (default 1024). Beyond it, the oldest
	// terminal jobs are evicted; queued and running jobs are never
	// dropped. Eviction also bounds the dedup window: resubmitting an
	// evicted spec recomputes it under the same content-derived ID.
	MaxJobs int
	// Log is the optional write-ahead job log (see wal.go): every
	// submission, event, and outcome is persisted, and NewManager
	// replays the store on startup — finished jobs are re-served
	// without recompute, unfinished ones re-enqueue under the same
	// JobID. nil (the default) keeps jobs in memory only, exactly the
	// previous behavior. The manager does not own the store; callers
	// close it after Close returns.
	Log *store.Store
	// Peers are base URLs of other axserve nodes to shard multi-grid
	// suites across (see shard.go). Empty (the default) runs every job
	// locally. A peer that fails mid-shard, or sends a report that does
	// not check out, degrades to local fallback, never to a failed job.
	Peers []string
	// CellParallel is the number of suite cells each job runs in
	// flight through the local executor (0 or 1 = serial, the previous
	// behavior). Within-cell parallelism is still the spec's Workers.
	CellParallel int
}

// JobStatus is the observable snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Suite is the spec's name, Model its source model.
	Suite string `json:"suite,omitempty"`
	Model string `json:"model"`
	// Cells / CellsDone give suite-wide progress over the attack × eps
	// plan.
	Cells     int       `json:"cells"`
	CellsDone int       `json:"cells_done"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Error is set on failed/cancelled jobs.
	Error string `json:"error,omitempty"`
}

// job is the Manager's record of one submitted spec.
type job struct {
	id   string
	spec *experiment.Spec

	mu   sync.Mutex
	cond *sync.Cond // broadcast on log append and state change
	// log is the persisted per-job event log: the single source every
	// subscriber replays from, so late subscribers see the full
	// history before going live.
	log       []experiment.Event
	state     State
	cellsDone int
	report    *experiment.Report
	err       error
	cancelReq bool
	shutdown  bool               // cancellation came from Close, not the owner
	cancel    context.CancelFunc // set while running
	submitted time.Time
	started   time.Time
	finished  time.Time
	// wal mirrors the log and terminal state to the persistent job log;
	// nil on a memory-only manager (every write is a nil-receiver no-op).
	wal *jobLog
	// trace is the job's bounded span ring, created when the job starts
	// running; nil for queued jobs and jobs restored from the WAL
	// (traces are in-memory observability, not part of the durable
	// record).
	trace *obs.Recorder

	done chan struct{} // closed when state turns terminal
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Suite:     j.spec.Name,
		Model:     j.spec.Model,
		Cells:     j.spec.CellCount(),
		CellsDone: j.cellsDone,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// record appends one event to the job's log and wakes subscribers. It
// is the engine's WithProgress callback, so it also stamps the job ID
// (and timestamp, for service-originated suite brackets) onto every
// event — interleaved jobs in one process stay attributable.
func (j *job) record(ev experiment.Event) {
	ev.Job = j.id
	if ev.Suite == "" {
		ev.Suite = j.spec.Name
	}
	if ev.Time.IsZero() {
		//axvet:ignore determinism -- observability timestamp on the event envelope; replay comparisons normalize Time
		ev.Time = time.Now()
	}
	j.mu.Lock()
	if ev.Kind == experiment.CellFinished {
		j.cellsDone++
	}
	j.log = append(j.log, ev)
	j.wal.putEvent(ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finishLocked moves the job to a terminal state, appends the closing
// SuiteFinished event, and releases waiters. Callers hold j.mu.
func (j *job) finishLocked(state State, elapsed time.Duration, err error) {
	j.state = state
	j.err = err
	j.finished = time.Now() //axvet:ignore determinism -- job lifecycle metadata for status queries, not part of any result
	ev := experiment.Event{
		Kind:    experiment.SuiteFinished,
		Time:    j.finished,
		Job:     j.id,
		Suite:   j.spec.Name,
		Cells:   j.spec.CellCount(),
		Cell:    j.cellsDone,
		Elapsed: elapsed,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	j.log = append(j.log, ev)
	j.wal.putEvent(ev)
	st := walState{
		State:     state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		CellsDone: j.cellsDone,
		// A shutdown-forced cancellation is not the owner's decision:
		// mark it resumable so a restart re-enqueues the job instead of
		// honoring a cancel nobody requested.
		Resumable: state == StateCancelled && j.shutdown,
	}
	if err != nil {
		st.Error = err.Error()
	}
	if state == StateDone && j.report != nil {
		var buf bytes.Buffer
		if j.report.WriteJSON(&buf) == nil {
			st.ReportJSON = buf.Bytes()
		}
	}
	j.wal.putState(st)
	j.cond.Broadcast()
	close(j.done)
}

// Manager owns the job table, the worker pool, and the shared cache.
// Construct with NewManager; all methods are safe for concurrent use.
type Manager struct {
	cache       *core.Cache
	modelSource func(context.Context, string) (*modelzoo.Model, error)
	maxJobs     int
	log         *store.Store // nil = memory-only
	peers       []experiment.Peer
	cellPar     int
	sched       experiment.SchedCounters

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for List
	queue  chan *job
	closed bool
	wg     sync.WaitGroup
}

// NewManager starts a manager with cfg.Workers job runners.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Cache == nil {
		cfg.Cache = core.NewCache(core.CacheConfig{})
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	m := &Manager{
		cache:       cfg.Cache,
		modelSource: cfg.ModelSource,
		maxJobs:     cfg.MaxJobs,
		log:         cfg.Log,
		cellPar:     cfg.CellParallel,
		jobs:        make(map[string]*job),
	}
	for _, p := range cfg.Peers {
		m.peers = append(m.peers, NewClient(p))
	}
	// Replay the write-ahead log before the workers start: restored
	// terminal jobs are served from memory again, and jobs the previous
	// process never finished are re-enqueued ahead of any new
	// submissions. The queue is sized to fit every resumed job even
	// when that exceeds QueueDepth — resuming must not fail.
	var resume []*job
	if m.log != nil {
		var restored []*job
		restored, resume = m.replay()
		for _, j := range restored {
			m.jobs[j.id] = j
			m.order = append(m.order, j.id)
		}
	}
	depth := cfg.QueueDepth
	if len(resume) > depth {
		depth = len(resume)
	}
	m.queue = make(chan *job, depth)
	for _, j := range resume {
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.queue <- j
	}
	m.evictLocked()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// replay rebuilds the job table from the write-ahead log: jobs that
// reached a terminal state on their own come back restored (event log,
// report, timestamps); jobs that did not — still queued/running when
// the process died, or force-cancelled by a drain-expired Close — come
// back as fresh queued jobs under the same ID, in submission order.
// Unparseable jobs are dropped: a torn log degrades to recompute on
// resubmission, never to a failed startup.
func (m *Manager) replay() (restored, resume []*job) {
	for _, w := range replayWAL(m.log) {
		st := w.state
		if st.State.Terminal() && !(st.State == StateCancelled && st.Resumable) {
			j, err := w.restore(m.log)
			if err != nil {
				continue
			}
			restored = append(restored, j)
			continue
		}
		spec, err := experiment.Parse(w.spec)
		if err != nil {
			continue
		}
		j := &job{
			id:        w.id,
			spec:      spec,
			state:     StateQueued,
			submitted: st.Submitted, // keep the original submission order
			done:      make(chan struct{}),
		}
		j.cond = sync.NewCond(&j.mu)
		j.wal = newJobLog(m.log, w.id)
		j.wal.putState(walState{State: StateQueued, Submitted: j.submitted})
		resume = append(resume, j)
	}
	return restored, resume
}

// Cache exposes the shared cache, chiefly for the /metrics scrape.
func (m *Manager) Cache() *core.Cache { return m.cache }

// Sched exposes the scheduler counters, chiefly for the /metrics
// scrape. On a single-node manager Remote and Fallback stay pinned at
// zero.
func (m *Manager) Sched() *experiment.SchedCounters { return &m.sched }

// newEngine builds an engine over the shared cache: this manager's
// local executor (cell parallelism + scheduler counters) — wrapped in
// a ShardExecutor over the peers when shard is set and peers exist —
// plus the optional progress sink and model source.
func (m *Manager) newEngine(progress func(experiment.Event), shard bool) *experiment.Engine {
	local := experiment.LocalExecutor{Parallel: m.cellPar, Counters: &m.sched}
	var x experiment.Executor = &local
	if shard && len(m.peers) > 0 {
		x = &experiment.ShardExecutor{Local: local, Peers: m.peers}
	}
	opts := []experiment.Option{
		experiment.WithCache(m.cache),
		experiment.WithExecutor(x),
	}
	if progress != nil {
		opts = append(opts, experiment.WithProgress(progress))
	}
	if m.modelSource != nil {
		opts = append(opts, experiment.WithModelSource(m.modelSource))
	}
	return experiment.New(opts...)
}

// JobID derives the job ID for a spec: the hex-truncated SHA-256 of
// its canonical encoding (Spec.Encode). Identical suites — however
// their JSON was formatted on the way in — always hash to the same ID,
// which is what makes Submit deduplicate instead of recompute.
// Workers and Batch tune execution, not results (crafting rng streams
// are chunking-independent, pinned by the core determinism tests), so
// they are excluded from the hash: suites differing only in
// parallelism dedupe too, running with the first submission's
// settings.
func JobID(spec *experiment.Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	hashed := *spec
	hashed.Workers, hashed.Batch = 0, 0
	canonical, err := hashed.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:8]), nil
}

// Submit queues the suite and returns its content-derived job ID.
// created reports whether this call enqueued new work: resubmitting a
// spec the manager already knows as queued, running, or done returns
// the existing job untouched, so identical suites are computed once
// and every subsequent submission is served from the first job's log
// and result. Failed and cancelled jobs are dead ends with no report
// to serve, so resubmission retries them with a fresh job under the
// same ID.
func (m *Manager) Submit(spec *experiment.Spec) (id string, created bool, err error) {
	id, err = JobID(spec)
	if err != nil {
		return "", false, err
	}
	// Re-parse the canonical encoding so the job owns an independent
	// copy: callers reusing their spec (flag overrides, repeated
	// submissions) must not mutate a queued job's plan.
	canonical, err := spec.Encode()
	if err != nil {
		return "", false, err
	}
	own, err := experiment.Parse(canonical)
	if err != nil {
		return "", false, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", false, ErrClosed
	}
	replacing := false
	if prev, ok := m.jobs[id]; ok {
		prev.mu.Lock()
		state := prev.state
		prev.mu.Unlock()
		if state != StateFailed && state != StateCancelled {
			return id, false, nil
		}
		replacing = true
	}
	j := &job{
		id:        id,
		spec:      own,
		state:     StateQueued,
		submitted: time.Now(), //axvet:ignore determinism -- job lifecycle metadata for status queries, not part of any result
		done:      make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	// Journal before publishing: the queue send is what hands the job
	// to a worker, and the worker appends events through j.wal, so the
	// log (and its queued commit record) must exist first — anything
	// later races, and a later queued record could supersede a fast
	// job's terminal one.
	if m.log != nil {
		j.wal = newJobLog(m.log, id)
		j.wal.putSpec(canonical)
		j.wal.putState(walState{State: StateQueued, Submitted: j.submitted})
	}
	select {
	case m.queue <- j:
	default:
		// The journaled submission was never admitted; tombstone it so
		// a restart doesn't resurrect a job the caller was refused.
		j.wal.putState(walState{State: StateCancelled, Submitted: j.submitted, Error: ErrQueueFull.Error()})
		return "", false, ErrQueueFull
	}
	m.jobs[id] = j
	if !replacing {
		m.order = append(m.order, id)
	}
	m.evictLocked()
	return id, true, nil
}

// evictLocked drops the oldest terminal jobs once the table exceeds
// the retention bound, so a long-lived server's job history — event
// logs, reports — stays bounded. Active jobs are never dropped, even
// over the bound. Callers hold m.mu.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= m.maxJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if len(m.jobs) > m.maxJobs {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(m.jobs, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// Status snapshots one job.
func (m *Manager) Status(id string) (JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), nil
}

// List snapshots every job in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		j.mu.Lock()
		out[i] = j.statusLocked()
		j.mu.Unlock()
	}
	return out
}

// Result returns the finished job's report. A job that has not
// finished yet returns ErrNotFinished; a failed or cancelled job
// returns its terminal error.
func (m *Manager) Result(id string) (*experiment.Report, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone:
		return j.report, nil
	case j.state.Terminal():
		return nil, j.err
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.state)
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is
// cancelled), then returns Result.
func (m *Manager) Wait(ctx context.Context, id string) (*experiment.Report, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	return m.Result(id)
}

// Trace snapshots the job's recorded spans — local stages plus any
// shard subtrees imported from peers. A job that has not started (or
// was restored from the WAL, whose traces are not durable) has no
// spans yet; that is an empty trace, not an error.
func (m *Manager) Trace(id string) ([]obs.Span, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	rec := j.trace
	j.mu.Unlock()
	if rec == nil {
		return nil, nil
	}
	return rec.Spans(), nil
}

// Events subscribes to the job's event stream: the persisted log is
// replayed from the beginning — late subscribers see the full history,
// including after the job finished — followed by live events, and the
// channel closes once the terminal SuiteFinished event has been
// delivered or ctx is cancelled.
func (m *Manager) Events(ctx context.Context, id string) (<-chan experiment.Event, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	ch := make(chan experiment.Event)
	// The cond loop below sleeps on j.cond; wake it when the
	// subscriber's ctx dies so the goroutine never outlives its reader.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	go func() {
		defer close(ch)
		defer stop()
		next := 0
		for {
			j.mu.Lock()
			for next >= len(j.log) && !j.state.Terminal() && ctx.Err() == nil {
				j.cond.Wait()
			}
			if next < len(j.log) && ctx.Err() == nil {
				ev := j.log[next]
				next++
				j.mu.Unlock()
				select {
				case ch <- ev:
					continue
				case <-ctx.Done():
					return
				}
			}
			j.mu.Unlock()
			// Either the log is fully drained on a terminal job, or the
			// subscriber went away.
			return
		}
	}()
	return ch, nil
}

// Cancel stops the job: a queued job turns cancelled immediately
// (the worker skips it), a running job has its context cancelled and
// turns cancelled when Engine.Run unwinds. Cancelling a terminal job
// is a no-op, so DELETE is idempotent.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state.Terminal():
	case j.state == StateQueued:
		j.cancelReq = true
		j.finishLocked(StateCancelled, 0, context.Canceled)
	default: // running
		j.cancelReq = true
		j.cancel()
	}
	return j.statusLocked(), nil
}

// worker runs queued jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job, bracketing the cell events with
// SuiteStarted / SuiteFinished in the persisted log, on a fresh engine
// sharing the manager's cache — sharded across the peers when the
// manager has any (see shard.go).
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now() //axvet:ignore determinism -- job lifecycle metadata for status queries, not part of any result
	// Every run gets a fresh bounded span ring; the suite span below is
	// the root every stage (and every remote shard subtree) nests under.
	rec := obs.NewRecorder(obs.DefaultSpanCap)
	j.trace = rec
	j.mu.Unlock()
	defer cancel()
	ctx = obs.WithRecorder(ctx, rec)
	sctx, suiteSpan := obs.Start(ctx, "suite",
		obs.Attr{Key: "job", Value: j.id},
		obs.Attr{Key: "suite", Value: j.spec.Name})

	j.record(experiment.Event{
		Kind:  experiment.SuiteStarted,
		Cells: j.spec.CellCount(),
	})
	start := time.Now() //axvet:ignore determinism -- feeds the ElapsedMS metric only, which replay comparisons normalize
	var rep *experiment.Report
	_, planSpan := obs.Start(sctx, "plan")
	plan, err := j.spec.Plan()
	planSpan.End()
	if err == nil {
		rep, err = m.newEngine(j.record, true).RunPlan(sctx, plan)
	}

	// End the root span before the terminal state publishes, so anyone
	// who observed the job finish reads a complete trace.
	suiteSpan.End()

	j.mu.Lock()
	defer j.mu.Unlock()
	j.report = rep
	switch {
	case err == nil:
		j.finishLocked(StateDone, time.Since(start), nil)
	case j.cancelReq || errors.Is(err, context.Canceled):
		j.finishLocked(StateCancelled, time.Since(start), err)
	default:
		j.finishLocked(StateFailed, time.Since(start), err)
	}
}

// Close drains the service for shutdown: Submit starts refusing work,
// queued and running jobs keep going, and Close returns once every
// worker has exited. If ctx expires first, all remaining jobs are
// cancelled and Close still waits for the workers to unwind before
// returning ctx's error — the SIGTERM path of cmd/axserve.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Forced drain: cancel everything still moving, then wait for the
	// workers to observe it. Each job is marked shutdown first so its
	// terminal cancelled record reads as resumable — the restart
	// re-enqueues it rather than honoring a cancel nobody requested —
	// and so replayed logs always end in a terminal state (the engine's
	// unwind still appends the SuiteFinished event before Close returns).
	for _, st := range m.List() {
		if !st.State.Terminal() {
			if j, err := m.lookup(st.ID); err == nil {
				j.mu.Lock()
				j.shutdown = true
				j.mu.Unlock()
			}
			m.Cancel(st.ID)
		}
	}
	<-drained
	return ctx.Err()
}

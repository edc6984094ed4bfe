package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/modelzoo"
	"repro/internal/train"
)

// The service tests drive real engine runs over a small purpose-
// trained fixture model, mirroring the experiment engine's test setup
// so job results can be checked against direct Engine.Run output.
var (
	fixtureOnce sync.Once
	fixtureZoo  map[string]*modelzoo.Model
	// fixtureMu guards fixtureZoo across every source closure — the
	// map is package-shared, so the lock must be too.
	fixtureMu sync.Mutex
)

func fixtureSource(t testing.TB) func(context.Context, string) (*modelzoo.Model, error) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureZoo = map[string]*modelzoo.Model{}
		tr := dataset.Digits(800, 171)
		test := dataset.Digits(150, 191)
		net := models.FFNN(28*28, 10, 173)
		net.Name = "tiny-svc"
		train.Fit(net, tr, train.Config{Epochs: 2, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 3})
		fixtureZoo["tiny-svc"] = &modelzoo.Model{Net: net, Train: tr, Test: test, CleanAcc: 100 * train.Accuracy(net, test, 0)}
	})
	return func(ctx context.Context, name string) (*modelzoo.Model, error) {
		fixtureMu.Lock()
		defer fixtureMu.Unlock()
		if m, ok := fixtureZoo[name]; ok {
			return m, nil
		}
		// Defended jobs harden fixture models on demand, the way the
		// real zoo's defense deriver would.
		if defense.IsHardenedID(name) {
			base, cfg, err := defense.ParseHardenedID(name)
			if err != nil {
				return nil, err
			}
			bm, ok := fixtureZoo[base]
			if !ok {
				return nil, fmt.Errorf("fixture zoo: unknown base model %q", base)
			}
			cfg.Workers = 1
			m, err := defense.Harden(ctx, bm, cfg)
			if err != nil {
				return nil, err
			}
			fixtureZoo[name] = m
			return m, nil
		}
		return nil, fmt.Errorf("fixture zoo: unknown model %q", name)
	}
}

func tinySpec() *experiment.Spec {
	return &experiment.Spec{
		Name:        "service-test",
		Model:       "tiny-svc",
		Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
		Attacks:     []string{"FGM-linf", "PGD-linf"},
		Eps:         []float64{0, 0.1},
		Samples:     50,
		Seed:        5,
	}
}

func newTestManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	if cfg.ModelSource == nil {
		cfg.ModelSource = fixtureSource(t)
	}
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func TestJobIDCanonical(t *testing.T) {
	a := tinySpec()
	b := tinySpec()
	ida, err := JobID(a)
	if err != nil {
		t.Fatal(err)
	}
	idb, err := JobID(b)
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Fatalf("identical specs hashed differently: %s vs %s", ida, idb)
	}
	// Formatting must not matter: a spec parsed from differently laid
	// out JSON hashes identically.
	compact, err := experiment.Parse([]byte(`{"name":"service-test","model":"tiny-svc",` +
		`"multipliers":["mul8u_1JFF","mul8u_JV3"],"attacks":["FGM-linf","PGD-linf"],` +
		`"eps":[0,0.1],"samples":50,"seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if idc, _ := JobID(compact); idc != ida {
		t.Fatalf("JSON formatting changed the job ID: %s vs %s", idc, ida)
	}
	// Workers/Batch tune execution, never results: they must not split
	// the dedup key.
	b.Workers, b.Batch = 4, 16
	if idw, _ := JobID(b); idw != ida {
		t.Fatalf("parallelism settings changed the job ID: %s vs %s", idw, ida)
	}
	b.Samples = 8
	if idm, _ := JobID(b); idm == ida {
		t.Fatal("different suites must not share a job ID")
	}
	if _, err := JobID(&experiment.Spec{}); err == nil {
		t.Fatal("invalid specs must not hash")
	}
}

// TestSubmitDedupeAndResult is the acceptance criterion: submitting
// the same spec twice returns the same job ID, the suite is computed
// once, and later submissions are served from the finished job.
func TestSubmitDedupeAndResult(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	spec := tinySpec()
	id1, created, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first submission must create the job")
	}
	// A second submission — different *Spec value, same content — must
	// dedupe whether the job is queued, running, or done.
	id2, created, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if created || id2 != id1 {
		t.Fatalf("resubmission = (%s, created=%v), want (%s, created=false)", id2, created, id1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := m.Wait(ctx, id1)
	if err != nil {
		t.Fatal(err)
	}

	// Submitting after completion still dedupes and recomputes nothing:
	// same job, result immediately available, exactly one run in the
	// replayable log.
	id3, created, err := m.Submit(tinySpec())
	if err != nil || created || id3 != id1 {
		t.Fatalf("post-completion submission = (%s, %v, %v)", id3, created, err)
	}
	rep2, err := m.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != rep {
		t.Fatal("resubmission must be served from the finished job's report")
	}
	starts := 0
	for _, ev := range collectEvents(t, m, id1) {
		if ev.Kind == experiment.SuiteStarted {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("deduplicated spec ran %d times, want 1", starts)
	}

	// The numbers match a direct engine run of the same spec.
	ref, err := experiment.New(experiment.WithModelSource(fixtureSource(t))).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Grids {
		if !reflect.DeepEqual(rep.Grids[i].Acc, ref.Grids[i].Acc) {
			t.Fatalf("service job diverged from direct engine run on %s", ref.Grids[i].Attack)
		}
	}

	st, err := m.Status(id1)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.CellsDone != 4 || st.Cells != 4 || st.Suite != "service-test" {
		t.Fatalf("finished status = %+v", st)
	}
	if st.Started.IsZero() || st.Finished.IsZero() || st.Submitted.IsZero() {
		t.Fatalf("finished status missing timestamps: %+v", st)
	}
}

// collectEvents drains a full replay subscription on a terminal job.
func collectEvents(t *testing.T, m *Manager, id string) []experiment.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, err := m.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var out []experiment.Event
	for ev := range ch {
		out = append(out, ev)
	}
	return out
}

// TestEventsReplayableByLateSubscribers pins the persisted-log
// contract: a subscriber arriving after the job finished receives the
// complete, attributable event history and then the channel closes.
func TestEventsReplayableByLateSubscribers(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	id, _, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}

	evs := collectEvents(t, m, id)
	if len(evs) == 0 {
		t.Fatal("late subscriber got no replay")
	}
	if evs[0].Kind != experiment.SuiteStarted {
		t.Fatalf("replay must open with suite-started, got %s", evs[0].Kind)
	}
	last := evs[len(evs)-1]
	if last.Kind != experiment.SuiteFinished || last.Err != "" {
		t.Fatalf("replay must close with a clean suite-finished, got %+v", last)
	}
	cellsFinished := 0
	for _, ev := range evs {
		if ev.Job != id {
			t.Fatalf("event not tagged with the job ID: %+v", ev)
		}
		if ev.Suite != "service-test" {
			t.Fatalf("event not tagged with the suite name: %+v", ev)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event missing timestamp: %+v", ev)
		}
		if ev.Kind == experiment.CellFinished {
			cellsFinished++
		}
	}
	if cellsFinished != 4 {
		t.Fatalf("replay carries %d cell-finished events, want 4", cellsFinished)
	}
	// Replay is repeatable: a second late subscriber sees the same log.
	if evs2 := collectEvents(t, m, id); len(evs2) != len(evs) {
		t.Fatalf("second replay has %d events, first had %d", len(evs2), len(evs))
	}
}

// gatedSource blocks model resolution until the gate opens, giving
// tests deterministic control over when a running job can proceed.
func gatedSource(t *testing.T, gate <-chan struct{}) func(context.Context, string) (*modelzoo.Model, error) {
	src := fixtureSource(t)
	return func(ctx context.Context, name string) (*modelzoo.Model, error) {
		<-gate
		return src(ctx, name)
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := m.Status(id)
	t.Fatalf("job %s never reached %s (now %s)", id, want, st.State)
	return JobStatus{}
}

// TestCancelQueuedAndRunning drives both cancellation paths with a
// single worker: job B is cancelled while queued behind blocked job A,
// then A is cancelled mid-run.
func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1, ModelSource: gatedSource(t, gate)})

	specA := tinySpec()
	idA, _, err := m.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, idA, StateRunning)

	specB := tinySpec()
	specB.Seed = 99 // distinct content, distinct job
	idB, _, err := m.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(idB)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", st.State)
	}
	if _, err := m.Result(idB); err == nil {
		t.Fatal("cancelled job must not expose a report")
	}
	evs := collectEvents(t, m, idB)
	if len(evs) != 1 || evs[0].Kind != experiment.SuiteFinished || evs[0].Err == "" {
		t.Fatalf("queue-cancelled job log = %+v, want a single failed suite-finished", evs)
	}

	// Cancel the running job, then unblock it so Engine.Run observes
	// the dead context.
	if _, err := m.Cancel(idA); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitState(t, m, idA, StateCancelled)
	if _, err := m.Result(idA); !errors.Is(err, context.Canceled) {
		t.Fatalf("running-cancelled job Result err = %v, want context.Canceled", err)
	}
	// Idempotent on terminal jobs.
	if st, err := m.Cancel(idA); err != nil || st.State != StateCancelled {
		t.Fatalf("re-cancel = (%+v, %v)", st, err)
	}
}

func TestQueueBoundsAndUnknownJobs(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, ModelSource: gatedSource(t, gate)})
	a := tinySpec()
	idA, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, idA, StateRunning) // worker holds A, queue is empty
	b := tinySpec()
	b.Seed = 91
	if _, _, err := m.Submit(b); err != nil {
		t.Fatal(err)
	}
	c := tinySpec()
	c.Seed = 92
	if _, _, err := m.Submit(c); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue Submit err = %v, want ErrQueueFull", err)
	}
	// Unknown IDs are ErrNotFound everywhere.
	if _, err := m.Status("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status err = %v", err)
	}
	if _, err := m.Result("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Result err = %v", err)
	}
	if _, err := m.Events(context.Background(), "feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Events err = %v", err)
	}
	if _, err := m.Cancel("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel err = %v", err)
	}
	if _, err := m.Wait(context.Background(), "feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait err = %v", err)
	}
}

func TestFailedJobState(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	spec := tinySpec()
	spec.Model = "no-such-model"
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, id, StateFailed)
	if st.Error == "" {
		t.Fatal("failed job must carry its error")
	}
	if _, err := m.Result(id); err == nil {
		t.Fatal("failed job must not expose a report")
	}
	evs := collectEvents(t, m, id)
	if last := evs[len(evs)-1]; last.Kind != experiment.SuiteFinished || last.Err == "" {
		t.Fatalf("failed job log must end with a failed suite-finished, got %+v", last)
	}
}

// TestResubmitRetriesTerminalFailures: failed and cancelled jobs
// must not poison their spec hash forever — resubmitting retries them
// under the same ID, while done jobs keep deduplicating.
func TestResubmitRetriesTerminalFailures(t *testing.T) {
	var calls int
	var mu sync.Mutex
	src := fixtureSource(t)
	flaky := func(ctx context.Context, name string) (*modelzoo.Model, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			return nil, fmt.Errorf("model store briefly unavailable")
		}
		return src(ctx, name)
	}
	m := newTestManager(t, Config{Workers: 1, ModelSource: flaky})
	id, created, err := m.Submit(tinySpec())
	if err != nil || !created {
		t.Fatalf("Submit = (%s, %v, %v)", id, created, err)
	}
	waitState(t, m, id, StateFailed)

	id2, created, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !created || id2 != id {
		t.Fatalf("resubmit of failed job = (%s, created=%v), want (%s, created=true)", id2, created, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, id); err != nil {
		t.Fatalf("retried job did not recover: %v", err)
	}
	// One retained job per ID: the retry replaced the failed record.
	if jobs := m.List(); len(jobs) != 1 || jobs[0].State != StateDone {
		t.Fatalf("job table after retry = %+v", jobs)
	}
	// Done jobs still dedupe.
	if _, created, _ := m.Submit(tinySpec()); created {
		t.Fatal("done job must keep deduplicating")
	}

	// Cancelled jobs retry too.
	spec := tinySpec()
	spec.Seed = 77
	idc, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(idc)
	waitState(t, m, idc, StateCancelled)
	if _, created, err := m.Submit(spec); err != nil || !created {
		t.Fatalf("resubmit of cancelled job = (created=%v, %v), want created=true", created, err)
	}
	if _, err := m.Wait(ctx, idc); err != nil {
		t.Fatalf("retried cancelled job: %v", err)
	}
}

// TestJobRetentionBound: the manager must not grow without bound — a
// long-lived server evicts its oldest finished jobs (with their logs
// and reports) past MaxJobs, never its active ones.
func TestJobRetentionBound(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		spec := tinySpec()
		spec.Seed = seed
		id, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	jobs := m.List()
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs over MaxJobs=2, want 2: %+v", len(jobs), jobs)
	}
	if _, err := m.Status(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest finished job must be evicted, Status err = %v", err)
	}
	if jobs[0].ID != ids[1] || jobs[1].ID != ids[2] {
		t.Fatalf("eviction broke submission order: %+v", jobs)
	}
	// The evicted spec recomputes under the same content-derived ID —
	// the dedup window is the retention window.
	spec := tinySpec()
	spec.Seed = 1
	id, created, err := m.Submit(spec)
	if err != nil || !created || id != ids[0] {
		t.Fatalf("resubmit of evicted spec = (%s, %v, %v), want (%s, true, nil)", id, created, err, ids[0])
	}
}

// TestSharedCacheAcrossJobs pins the service's scaling story: two
// distinct suites overlapping on cells (the clean row; identical
// attack cells) share one cache, observable through Cache().Stats().
func TestSharedCacheAcrossJobs(t *testing.T) {
	cache := core.NewCache(core.CacheConfig{})
	m := newTestManager(t, Config{Workers: 1, Cache: cache})
	a := tinySpec()
	id1, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, id1); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := cache.Stats().CraftMisses

	// Same cells, different attack order: a fresh job, but every cell
	// replays from the shared cache.
	b := tinySpec()
	b.Attacks = []string{"PGD-linf", "FGM-linf"}
	id2, created, err := m.Submit(b)
	if err != nil || !created || id2 == id1 {
		t.Fatalf("reordered suite must be a new job: (%s, %v, %v)", id2, created, err)
	}
	if _, err := m.Wait(ctx, id2); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.CraftMisses != missesAfterFirst {
		t.Fatalf("second job re-crafted cells: %d misses, want %d", st.CraftMisses, missesAfterFirst)
	}
	if m.Cache() != cache {
		t.Fatal("manager must expose the injected cache")
	}
}

// TestCloseDrains covers both shutdown modes: a patient Close waits
// for the queue to drain; an expired Close cancels what remains.
func TestCloseDrains(t *testing.T) {
	src := fixtureSource(t)
	m := NewManager(Config{Workers: 1, ModelSource: src})
	id, _, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("patient close = %v", err)
	}
	if st, _ := m.Status(id); st.State != StateDone {
		t.Fatalf("drained job state = %s, want done", st.State)
	}
	if _, _, err := m.Submit(tinySpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close err = %v, want ErrClosed", err)
	}

	gate := make(chan struct{})
	m2 := NewManager(Config{Workers: 1, ModelSource: gatedSource(t, gate)})
	id2, _, err := m2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m2, id2, StateRunning)
	expired, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	closed := make(chan error, 1)
	go func() { closed <- m2.Close(expired) }()
	// The forced drain cancels the stuck job's context; the engine can
	// then unwind once the gate opens.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	if err := <-closed; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced close = %v, want deadline exceeded", err)
	}
	if st, _ := m2.Status(id2); st.State != StateCancelled {
		t.Fatalf("force-drained job state = %s, want cancelled", st.State)
	}
}

// TestDefendedSuiteJob: a spec with a defense block runs end to end
// through the manager — hardened-model training happens inside the
// job, the report carries the defense victims and the adaptive EOT
// grid, progress is sized by Spec.CellCount, and the defended spec
// never dedups onto its undefended twin.
func TestDefendedSuiteJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	plain := tinySpec()
	defended := tinySpec()
	defended.ApproxDense = true
	defended.Defense = &experiment.DefenseSpec{
		Kind:       "advtrain,ensemble",
		Attack:     "PGD-linf",
		Eps:        0.1,
		Ratio:      0.3,
		Epochs:     1,
		Pool:       []string{"mul8u_1JFF", "mul8u_JV3"},
		EOTSamples: 2,
	}
	idPlain, err := JobID(plain)
	if err != nil {
		t.Fatal(err)
	}
	idDef, err := JobID(defended)
	if err != nil {
		t.Fatal(err)
	}
	if idPlain == idDef {
		t.Fatal("defended and undefended specs hash to one job ID")
	}

	id, created, err := m.Submit(defended)
	if err != nil || !created {
		t.Fatalf("Submit = (%v, %v, %v)", id, created, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grids) != len(defended.Attacks)+1 {
		t.Fatalf("defended job produced %d grids, want %d", len(rep.Grids), len(defended.Attacks)+1)
	}
	if _, ok := rep.Grid("EOT-PGD-linf"); !ok {
		t.Fatal("defended job report is missing the EOT grid")
	}
	g := rep.Grids[0]
	for _, name := range []string{defended.Defense.AdvTrainVictimName(), "ensemble[2]"} {
		if _, ok := g.Column(name); !ok {
			t.Fatalf("defended job report is missing victim %q (victims %v)", name, g.Victims)
		}
	}
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != defended.CellCount() || st.CellsDone != defended.CellCount() {
		t.Fatalf("job progress %d/%d, want %d/%d", st.CellsDone, st.Cells, defended.CellCount(), defended.CellCount())
	}
}

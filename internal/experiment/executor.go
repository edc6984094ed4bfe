package experiment

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// cellHist times whole cells (craft + all victim evaluations) — the
// top-line latency distribution of the pipeline.
var cellHist = obs.Default.Histogram("ax_cell_duration_seconds",
	"End-to-end cell execution latency (craft through last victim evaluation), in seconds.")

// Executor runs a bound plan and assembles its Report. Implementations
// may execute cells in any order and with any parallelism; the Report
// is always assembled in plan order, so every executor producing the
// same numbers produces the same bytes.
type Executor interface {
	Execute(ctx context.Context, run *PlanRun) (*Report, error)
}

// SchedCounters are the scheduler's lifetime counters, shared between
// an executor and whoever exports them (axserve's /metrics). Local
// counts cells this process executed through its own executor,
// Remote cells a peer executed for this node's sharded jobs, and
// Fallback the subset of Local re-executed here after a peer shard
// failed or sent a report that did not check out. Ready is a gauge of
// cell-graph nodes currently ready to run.
type SchedCounters struct {
	Local    atomic.Int64
	Remote   atomic.Int64
	Fallback atomic.Int64
	Ready    atomic.Int64
}

// PlanRun is a plan bound to its runtime inputs — resolved models,
// sliced test set, built victims, per-grid attack instances — ready
// for an Executor. Engine.RunPlan constructs it; executors consume it.
type PlanRun struct {
	plan     *Plan
	dataset  string
	cleanAcc float64
	test     *dataset.Set
	// targets carry each grid's craft identity, hashed once at bind;
	// parallel to plan.Grids.
	targets []*core.CraftTarget
	names   []string       // victim columns, in report order
	models  []attack.Model // parallel to names
	opts    core.Options
	cache   *core.Cache
	emit    func(Event)
}

// Plan returns the plan this run was bound from.
func (r *PlanRun) Plan() *Plan { return r.plan }

// cellState accumulates one cell's results as its craft and evaluate
// nodes complete.
type cellState struct {
	adv     *tensor.T
	hit     bool
	start   time.Time
	elapsed time.Duration
	row     []float64
	pending int // evaluate nodes still outstanding
	// ctx/span carry the cell's trace context from its craft node to
	// its evaluate nodes, so predict spans nest under the cell span.
	// Written in runCraft's critical section, read by evaluate nodes
	// that only exist after it — ordered by the scheduler mutex.
	ctx  context.Context
	span *obs.SpanHandle
}

// evalNode is one (cell, victim) evaluation, runnable once the cell's
// batch is crafted.
type evalNode struct {
	cell   int // index into plan.Cells
	victim int
}

// LocalExecutor schedules a plan's cell graph over a bounded worker
// pool in this process. Craft nodes are all initially ready; each
// completed craft unlocks the cell's per-victim evaluate nodes, and a
// cell's CellFinished event fires when its last evaluation lands.
//
// Scheduling order: evaluate nodes first (finishing an in-flight cell
// beats starting a new one), then craft nodes whose batch the cache
// already holds (a hit costs microseconds and may unlock work for
// idle workers), then plan order. With Parallel <= 1 this degenerates
// to exactly the serial engine's sweep — same cell order, same event
// order, emitted from a single goroutine.
//
// Reports are assembled in plan order after all cells complete, so the
// bytes are identical whatever the completion order was.
type LocalExecutor struct {
	// Parallel is the number of cells (craft or evaluate nodes) in
	// flight at once; 0 or 1 means serial. Within-cell crafting
	// parallelism is still governed by Spec.Workers.
	Parallel int
	// Counters, when non-nil, receives scheduler counts (Local,
	// Ready); a ShardExecutor wrapping this one adds Remote/Fallback.
	Counters *SchedCounters
}

func (x *LocalExecutor) Execute(ctx context.Context, run *PlanRun) (*Report, error) {
	states := make([]cellState, len(run.plan.Cells))
	if err := x.run(ctx, run, run.plan.cellsOf(run.plan.Grids), states); err != nil {
		return nil, err
	}
	return run.assemble(states), nil
}

// run schedules the given cells (indices into plan.Cells, in plan
// order) and writes each one's results into states[cell]. Cells
// outside the subset are left untouched, so concurrent runs over
// disjoint subsets may share one states slice — the sharded
// executor's local part and its peer fallbacks do.
func (x *LocalExecutor) run(ctx context.Context, run *PlanRun, cells []int, states []cellState) error {
	plan := run.plan
	n := len(cells)
	workers := x.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	var (
		mu         sync.Mutex
		cond       = sync.NewCond(&mu)
		craftReady = append(make([]int, 0, n), cells...) // plan order
		evalReady  []evalNode                            // FIFO
		cellsDone  int
		runErr     error
	)
	// Per-grid spans open lazily at the grid's first craft and close
	// when its last cell finishes, so the trace shows grid phases even
	// though the scheduler interleaves grids freely.
	gridCtx := make([]context.Context, len(plan.Grids))
	gridSpan := make([]*obs.SpanHandle, len(plan.Grids))
	gridLeft := make([]int, len(plan.Grids))
	for _, ci := range cells {
		gridLeft[plan.Cells[ci].Grid]++
	}
	gauge := func() {
		if x.Counters != nil {
			x.Counters.Ready.Store(int64(len(craftReady) + len(evalReady)))
		}
	}
	gauge()
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		cond.Broadcast()
		mu.Unlock()
	}

	runCraft := func(ci int) {
		cell := plan.Cells[ci]
		st := &states[ci]
		mu.Lock()
		if gridCtx[cell.Grid] == nil {
			gridCtx[cell.Grid], gridSpan[cell.Grid] = obs.Start(ctx, "grid",
				obs.Attr{Key: "attack", Value: plan.Grids[cell.Grid]})
		}
		st.ctx, st.span = obs.Start(gridCtx[cell.Grid], "cell",
			obs.Attr{Key: "attack", Value: cell.Attack},
			obs.Attr{Key: "eps", Value: strconv.FormatFloat(cell.Eps, 'g', -1, 64)},
			obs.Attr{Key: "cell", Value: strconv.Itoa(cell.Index)})
		mu.Unlock()
		//axvet:ignore determinism -- wall-clock start for the ElapsedMS metric, which report comparisons normalize
		st.start = time.Now()
		run.emit(Event{Kind: CellStarted, Suite: plan.spec.Name, Attack: cell.Attack, Eps: cell.Eps, Cell: cell.Index, Cells: plan.Total})
		adv, hit, err := run.cache.CraftedBatch(st.ctx, run.targets[cell.Grid], cell.Eps, run.opts)
		if err != nil {
			fail(err)
			return
		}
		run.emit(Event{Kind: cacheKind(hit), Suite: plan.spec.Name, Attack: cell.Attack, Eps: cell.Eps, Cell: cell.Index, Cells: plan.Total})
		mu.Lock()
		st.adv, st.hit = adv, hit
		st.row = make([]float64, len(run.models))
		st.pending = len(run.models)
		for vi := range run.models {
			evalReady = append(evalReady, evalNode{cell: ci, victim: vi})
		}
		gauge()
		cond.Broadcast()
		mu.Unlock()
	}

	runEval := func(nd evalNode) {
		cell := plan.Cells[nd.cell]
		st := &states[nd.cell]
		preds, _, err := run.cache.Predictions(st.ctx, run.models[nd.victim], st.adv, run.opts)
		if err != nil {
			fail(err)
			return
		}
		rob := core.Robustness(preds, run.test.Y)
		mu.Lock()
		st.row[nd.victim] = rob
		st.pending--
		finished := st.pending == 0
		gridDone := false
		if finished {
			st.elapsed = time.Since(st.start)
			cellsDone++
			gridLeft[cell.Grid]--
			gridDone = gridLeft[cell.Grid] == 0
		}
		cond.Broadcast()
		mu.Unlock()
		if finished {
			st.span.End()
			cellHist.Observe(st.elapsed)
			if gridDone {
				gridSpan[cell.Grid].End()
			}
			if x.Counters != nil {
				x.Counters.Local.Add(1)
			}
			run.emit(Event{Kind: CellFinished, Suite: plan.spec.Name, Attack: cell.Attack, Eps: cell.Eps, Cell: cell.Index, Cells: plan.Total, CacheHit: st.hit, Elapsed: st.elapsed})
		}
	}

	work := func() {
		for {
			mu.Lock()
			for runErr == nil && cellsDone < n && len(evalReady) == 0 && len(craftReady) == 0 {
				cond.Wait()
			}
			if runErr != nil || cellsDone == n {
				mu.Unlock()
				return
			}
			if len(evalReady) > 0 {
				nd := evalReady[0]
				evalReady = evalReady[1:]
				gauge()
				mu.Unlock()
				runEval(nd)
				continue
			}
			// Among ready craft nodes, prefer the first (plan order)
			// whose batch is already cached; otherwise plan order.
			pick := 0
			for i, ci := range craftReady {
				c := plan.Cells[ci]
				if run.cache.CraftedCached(run.targets[c.Grid], c.Eps, run.opts) {
					pick = i
					break
				}
			}
			ci := craftReady[pick]
			craftReady = append(craftReady[:pick], craftReady[pick+1:]...)
			gauge()
			mu.Unlock()
			// The serial engine checked ctx once per cell; keep that
			// granularity so a cancelled fully-cached sweep still errors.
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			runCraft(ci)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	if x.Counters != nil {
		x.Counters.Ready.Store(0)
	}
	return runErr
}

// assemble builds the Report in plan order from completed cell states.
func (r *PlanRun) assemble(states []cellState) *Report {
	spec := r.plan.spec
	rep := &Report{
		Spec:     *spec,
		CleanAcc: r.cleanAcc,
		Grids:    make([]*core.Grid, len(r.plan.Grids)),
		Cells:    make([]CellTiming, 0, len(r.plan.Cells)),
	}
	for gi, name := range r.plan.Grids {
		rep.Grids[gi] = &core.Grid{
			Attack:  name,
			Dataset: r.dataset,
			Eps:     append([]float64(nil), spec.Eps...),
			Victims: append([]string(nil), r.names...),
			Acc:     make([][]float64, len(spec.Eps)),
		}
	}
	for i, cell := range r.plan.Cells {
		st := &states[i]
		rep.Grids[cell.Grid].Acc[cell.EpsIdx] = st.row
		rep.Cells = append(rep.Cells, CellTiming{
			Attack:    cell.Attack,
			Eps:       cell.Eps,
			CacheHit:  st.hit,
			ElapsedMS: float64(st.elapsed) / float64(time.Millisecond),
		})
	}
	return rep
}

package experiment

import (
	"context"
	"fmt"
	"log"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Peer executes a subset of a suite's grids on another node and
// returns the partial report. service.Client satisfies it over the
// internal shard endpoint; the implementation owns the RPC's trace
// span and latency histogram.
type Peer interface {
	ExecuteShard(ctx context.Context, spec *Spec, grids []string) (*Report, error)
}

// ShardExecutor spreads a bound plan over this node and its peers:
// grids are dealt round-robin, grid 0 always local. The local part runs
// on Local's scheduler; each peer part is one ExecuteShard call whose
// checked report fills its cells' states, each announced by a
// CellFinished event. A peer that fails, or answers with a report that
// does not match the local binding, has its cells re-run on Local from
// the same binding. The report is assembled once, in plan order, as
// LocalExecutor assembles it, so a sharded run yields a local run's
// bytes, timing fields aside. Nodes sharing one disk store replay each
// other's crafted batches.
type ShardExecutor struct {
	// Local runs this node's part and any fallback; its Counters also
	// receive the Remote and Fallback counts.
	Local LocalExecutor
	Peers []Peer
}

func (x *ShardExecutor) Execute(ctx context.Context, run *PlanRun) (*Report, error) {
	plan := run.plan
	nodes := len(x.Peers) + 1
	parts := make([][]string, nodes) // grid names per node
	for gi, g := range plan.Grids {
		parts[gi%nodes] = append(parts[gi%nodes], g)
	}
	states := make([]cellState, len(plan.Cells))
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for ni := 1; ni < nodes; ni++ {
		if len(parts[ni]) == 0 {
			continue
		}
		wg.Add(1)
		go func(ni int) {
			defer wg.Done()
			errs[ni] = x.runRemote(ctx, run, x.Peers[ni-1], parts[ni], states)
		}(ni)
	}
	errs[0] = x.Local.run(ctx, run, plan.cellsOf(parts[0]), states)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Only a run that actually sent parts out merges: a single-grid
	// suite on a node with peers traces like a local run.
	if nodes > 1 && len(parts[1]) > 0 {
		_, span := obs.Start(ctx, "merge")
		defer span.End()
	}
	return run.assemble(states), nil
}

// runRemote executes one partition on a peer, falling back to local
// execution when the peer fails or its report does not check out —
// one bad node degrades throughput, never the suite.
func (x *ShardExecutor) runRemote(ctx context.Context, run *PlanRun, peer Peer, grids []string, states []cellState) error {
	cells := run.plan.cellsOf(grids)
	rep, err := peer.ExecuteShard(ctx, run.plan.spec, grids)
	var timings map[int]CellTiming
	if err == nil {
		timings, err = run.checkShard(grids, cells, rep)
	}
	if err == nil {
		run.fillRemote(rep, timings, states)
		if c := x.Local.Counters; c != nil {
			c.Remote.Add(int64(len(cells)))
		}
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	// Say why: the span carries the cause into the job's trace and the
	// log line to the operator. The span covers the local re-run, whose
	// grid spans stay under the suite, as in an unsharded run.
	_, span := obs.Start(ctx, "shard-fallback", obs.Attr{Key: "reason", Value: err.Error()})
	defer span.End()
	trace := "-"
	if rec, _ := obs.FromContext(ctx); rec != nil {
		trace = rec.TraceID()
	}
	log.Printf("experiment: trace %s: %d cells of %v fall back to local: %v", trace, len(cells), grids, err)
	if err := x.Local.run(ctx, run, cells, states); err != nil {
		return err
	}
	if c := x.Local.Counters; c != nil {
		c.Fallback.Add(int64(len(cells)))
	}
	return nil
}

// cellsOf returns the indices, in plan order, of the cells belonging
// to the named grids.
func (p *Plan) cellsOf(grids []string) []int {
	var cells []int
	for i, c := range p.Cells {
		if slices.Contains(grids, c.Attack) {
			cells = append(cells, i)
		}
	}
	return cells
}

// maxElapsedMS bounds a peer's cell timing: half of time.Duration's
// range (~146 years), so ElapsedMS*1e6 always converts exactly.
const maxElapsedMS = float64(math.MaxInt64/2) / float64(time.Millisecond)

// checkShard validates a peer's partial report against this run's
// binding before any of it enters a cell state: exactly the requested
// grids, each once, over the local budgets and victim columns; a
// finite percentage in every Acc entry; one in-range timing per
// requested cell; and the local clean accuracy (every node trains the same
// models deterministically, so a mismatch is deployment skew). It
// returns the timings keyed by PlanCell.Index.
func (r *PlanRun) checkShard(grids []string, cells []int, rep *Report) (map[int]CellTiming, error) {
	plan := r.plan
	if rep == nil {
		return nil, fmt.Errorf("experiment: shard: empty report")
	}
	if rep.CleanAcc != r.cleanAcc {
		return nil, fmt.Errorf("experiment: shard: clean accuracy %g, local %g", rep.CleanAcc, r.cleanAcc)
	}
	if len(rep.Grids) != len(grids) {
		return nil, fmt.Errorf("experiment: shard: %d grids for %d requested", len(rep.Grids), len(grids))
	}
	seen := make(map[string]bool, len(grids))
	for _, g := range rep.Grids {
		if g == nil {
			return nil, fmt.Errorf("experiment: shard: null grid")
		}
		if !slices.Contains(grids, g.Attack) {
			return nil, fmt.Errorf("experiment: shard: grid %q was not requested", g.Attack)
		}
		if seen[g.Attack] {
			return nil, fmt.Errorf("experiment: shard: grid %q twice", g.Attack)
		}
		seen[g.Attack] = true
		if g.Dataset != r.dataset || !slices.Equal(g.Eps, plan.spec.Eps) || !slices.Equal(g.Victims, r.names) || len(g.Acc) != len(g.Eps) {
			return nil, fmt.Errorf("experiment: shard: grid %q is %d rows over %s %v x %v, local binding %s %v x %v",
				g.Attack, len(g.Acc), g.Dataset, g.Eps, g.Victims, r.dataset, plan.spec.Eps, r.names)
		}
		for _, row := range g.Acc {
			// !(v >= 0 && v <= 100) also rejects NaN.
			if len(row) != len(r.names) || slices.ContainsFunc(row, func(v float64) bool { return !(v >= 0 && v <= 100) }) {
				return nil, fmt.Errorf("experiment: shard: grid %q row %v is not %d percentages", g.Attack, row, len(r.names))
			}
		}
	}
	timings := make(map[int]CellTiming, len(cells))
	for _, ct := range rep.Cells {
		cell, ok := plan.CellAt(ct.Attack, ct.Eps)
		if !ok || !slices.Contains(grids, cell.Attack) {
			return nil, fmt.Errorf("experiment: shard: cell %s eps=%g was not requested", ct.Attack, ct.Eps)
		}
		if _, dup := timings[cell.Index]; dup {
			return nil, fmt.Errorf("experiment: shard: cell %s eps=%g twice", ct.Attack, ct.Eps)
		}
		// !(ms >= 0 && ms <= max) also rejects NaN; the bound keeps the
		// conversion to time.Duration in range.
		if !(ct.ElapsedMS >= 0 && ct.ElapsedMS <= maxElapsedMS) {
			return nil, fmt.Errorf("experiment: shard: cell %s eps=%g elapsed %g ms", ct.Attack, ct.Eps, ct.ElapsedMS)
		}
		timings[cell.Index] = ct
	}
	if len(timings) != len(cells) {
		return nil, fmt.Errorf("experiment: shard: %d cell timings for %d requested cells", len(timings), len(cells))
	}
	return timings, nil
}

// fillRemote writes a checked peer report into the cell states it
// covers and announces each cell as finished at its plan position.
func (r *PlanRun) fillRemote(rep *Report, timings map[int]CellTiming, states []cellState) {
	plan := r.plan
	for ci, cell := range plan.Cells {
		ct, ok := timings[cell.Index]
		if !ok {
			continue
		}
		g, _ := rep.Grid(cell.Attack)
		st := &states[ci]
		st.row = g.Acc[cell.EpsIdx]
		st.hit = ct.CacheHit
		st.elapsed = time.Duration(ct.ElapsedMS * float64(time.Millisecond))
		r.emit(Event{Kind: CellFinished, Suite: plan.spec.Name, Attack: cell.Attack, Eps: cell.Eps, Cell: cell.Index, Cells: plan.Total, CacheHit: st.hit, Elapsed: st.elapsed})
	}
}

package experiment

import (
	"fmt"

	"repro/internal/core"
)

// EOTGridName is the adaptive grid a defense block with EOTSamples > 0
// appends to the suite: PGD over the expectation of the randomized
// ensemble, under the Linf norm (attack.NewEOT's name for it).
const EOTGridName = "EOT-PGD-linf"

// PlanCell is one schedulable unit of a compiled plan: craft the
// (attack, eps) batch once, then evaluate it on every victim. Index is
// the cell's 1-based position in the full plan — the stable value of
// Event.Cell and the sort key of Report.Cells, however many workers or
// shards execute the plan and in whatever order cells finish.
type PlanCell struct {
	Index  int
	Grid   int // index into the owning Plan's Grids
	EpsIdx int // index into Spec.Eps
	Attack string
	Eps    float64
}

// Plan is a Spec compiled into its deterministic cell DAG: one grid
// per attack (plus the adaptive EOT grid when the defense enables it),
// one cell per grid × eps, grid-major — exactly the order the serial
// engine swept, so "plan order" and historical report order coincide.
// The dependency structure is implicit and uniform: each cell is a
// craft node feeding one evaluate node per victim, and cells are
// mutually independent.
//
// A restricted plan (see Restrict) covers a subset of the grids but
// keeps the full plan's cell indices and Total, so events and merged
// reports from sharded execution number cells identically to a
// single-node run.
type Plan struct {
	spec  *Spec
	Grids []string
	Cells []PlanCell
	Total int
}

// Plan validates the spec and compiles it.
func (s *Spec) Plan() (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return compilePlan(s), nil
}

// compilePlan builds the cell graph for an already-validated spec. It
// is purely structural — no model or dataset resolution — so it is
// cheap enough to back CellCount.
func compilePlan(s *Spec) *Plan {
	grids := append([]string(nil), s.Attacks...)
	if s.Defense != nil && s.Defense.EOTSamples > 0 {
		grids = append(grids, EOTGridName)
	}
	p := &Plan{
		spec:  s,
		Grids: grids,
		Cells: make([]PlanCell, 0, len(grids)*len(s.Eps)),
	}
	for gi, name := range grids {
		for ei, eps := range s.Eps {
			p.Cells = append(p.Cells, PlanCell{
				Index:  len(p.Cells) + 1,
				Grid:   gi,
				EpsIdx: ei,
				Attack: name,
				Eps:    eps,
			})
		}
	}
	p.Total = len(p.Cells)
	return p
}

// Spec returns the spec the plan was compiled from. Restricted plans
// keep the full spec: a shard executes a subset of grids of the whole
// suite, not a smaller suite.
func (p *Plan) Spec() *Spec { return p.spec }

// Restrict returns a sub-plan covering exactly the named grids —
// sharding is grid-granular, so a crafted batch never splits across
// nodes. Cell indices and Total are preserved from the full
// plan; only the Grids slice (and each cell's Grid index into it)
// shrinks. Unknown or duplicate grid names are errors: a shard
// silently executing the wrong subset would merge into a report with
// holes.
func (p *Plan) Restrict(grids []string) (*Plan, error) {
	if len(grids) == 0 {
		return nil, fmt.Errorf("experiment: restrict: at least one grid is required")
	}
	want := make(map[string]int, len(grids))
	for i, g := range grids {
		if _, dup := want[g]; dup {
			return nil, fmt.Errorf("experiment: restrict: duplicate grid %q", g)
		}
		found := false
		for _, have := range p.Grids {
			if have == g {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiment: restrict: grid %q not in plan", g)
		}
		want[g] = i
	}
	sub := &Plan{
		spec:  p.spec,
		Grids: append([]string(nil), grids...),
		Total: p.Total,
	}
	for _, c := range p.Cells {
		if gi, ok := want[c.Attack]; ok {
			c.Grid = gi
			sub.Cells = append(sub.Cells, c)
		}
	}
	return sub, nil
}

// CellAt finds the plan cell for an (attack, eps) pair, matching eps
// under the crafting cache's quantisation. The sharding executor uses
// it to map a peer's cell timings back onto plan positions.
func (p *Plan) CellAt(attackName string, eps float64) (PlanCell, bool) {
	q := core.EpsKey(eps)
	for _, c := range p.Cells {
		if c.Attack == attackName && core.EpsKey(c.Eps) == q {
			return c, true
		}
	}
	return PlanCell{}, false
}

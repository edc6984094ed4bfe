package experiment

import (
	"strings"
	"testing"

	"repro/internal/attack"
)

// TestPlanCompilesGridMajor pins the compiled plan's shape: one grid
// per attack, cells grid-major in spec order, 1-based indices, and
// Total covering every cell — exactly the serial engine's historical
// sweep order, so plan order and report order coincide.
func TestPlanCompilesGridMajor(t *testing.T) {
	spec := validSpec()
	spec.Attacks = []string{"FGM-linf", "PGD-linf"}
	spec.Eps = []float64{0, 0.1, 0.2}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Grids) != 2 || plan.Grids[0] != "FGM-linf" || plan.Grids[1] != "PGD-linf" {
		t.Fatalf("plan grids = %v", plan.Grids)
	}
	if plan.Total != 6 || len(plan.Cells) != 6 {
		t.Fatalf("plan has %d cells, Total %d, want 6", len(plan.Cells), plan.Total)
	}
	for i, c := range plan.Cells {
		if c.Index != i+1 {
			t.Fatalf("cell %d has Index %d, want 1-based plan position", i, c.Index)
		}
		wantGrid, wantEps := i/3, i%3
		if c.Grid != wantGrid || c.EpsIdx != wantEps {
			t.Fatalf("cell %d = grid %d eps %d, want grid-major (%d, %d)", i, c.Grid, c.EpsIdx, wantGrid, wantEps)
		}
		if c.Attack != plan.Grids[c.Grid] || c.Eps != spec.Eps[c.EpsIdx] {
			t.Fatalf("cell %d carries (%s, %g), want (%s, %g)", i, c.Attack, c.Eps, plan.Grids[c.Grid], spec.Eps[c.EpsIdx])
		}
	}
	if plan.Spec() != spec {
		t.Fatal("plan lost its spec")
	}
	if got := spec.CellCount(); got != plan.Total {
		t.Fatalf("CellCount = %d, plan Total = %d", got, plan.Total)
	}
}

// TestPlanRejectsInvalidSpec: compiling goes through Validate.
func TestPlanRejectsInvalidSpec(t *testing.T) {
	spec := validSpec()
	spec.Attacks = nil
	if _, err := spec.Plan(); err == nil {
		t.Fatal("plan of an invalid spec must fail")
	}
}

// TestPlanEOTGrid: a defense block with EOTSamples appends the
// adaptive grid after the declared attacks, under the exact name
// attack.NewEOT would report — the engine resolves the grid by this
// name, so drift here would strand the EOT cells.
func TestPlanEOTGrid(t *testing.T) {
	if got := attack.NewEOT(nil, attack.Linf, 4).Name(); got != EOTGridName {
		t.Fatalf("EOTGridName %q does not match attack.NewEOT's name %q", EOTGridName, got)
	}
	spec := validSpec()
	spec.Defense = &DefenseSpec{Kind: "ensemble", Pool: []string{"mul8u_1JFF"}, EOTSamples: 4}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Grids) != 2 || plan.Grids[1] != EOTGridName {
		t.Fatalf("defended plan grids = %v, want declared attacks + %s", plan.Grids, EOTGridName)
	}
	if spec.CellCount() != 2*len(spec.Eps) {
		t.Fatalf("CellCount = %d, want %d with the EOT grid", spec.CellCount(), 2*len(spec.Eps))
	}
	// EOTSamples = 0 must not add the grid.
	spec.Defense.EOTSamples = 0
	if plan, err = spec.Plan(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Grids) != 1 {
		t.Fatalf("plan grew an EOT grid without EOTSamples: %v", plan.Grids)
	}
}

// TestPlanRestrict: a restricted plan covers exactly the named grids
// while keeping the full plan's indices and Total, so sharded
// events and merged reports number cells like a single-node run.
func TestPlanRestrict(t *testing.T) {
	spec := validSpec()
	spec.Attacks = []string{"FGM-linf", "PGD-linf", "BIM-linf"}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := plan.Restrict([]string{"BIM-linf", "FGM-linf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Grids) != 2 || sub.Grids[0] != "BIM-linf" || sub.Grids[1] != "FGM-linf" {
		t.Fatalf("restricted grids = %v", sub.Grids)
	}
	if sub.Total != plan.Total {
		t.Fatalf("restricted Total = %d, want full plan's %d", sub.Total, plan.Total)
	}
	if len(sub.Cells) != 2*len(spec.Eps) {
		t.Fatalf("restricted plan has %d cells, want %d", len(sub.Cells), 2*len(spec.Eps))
	}
	for _, c := range sub.Cells {
		if got := sub.Grids[c.Grid]; got != c.Attack {
			t.Fatalf("cell %s points at grid %q after restriction", c.Attack, got)
		}
		// The cell keeps its full-plan index.
		full, ok := plan.CellAt(c.Attack, c.Eps)
		if !ok || full.Index != c.Index {
			t.Fatalf("restricted cell %s@%g lost its full-plan index", c.Attack, c.Eps)
		}
	}
	if sub.Spec() != spec {
		t.Fatal("restricted plan lost the full spec")
	}

	for _, bad := range [][]string{
		nil,
		{"FGM-linf", "FGM-linf"},
		{"no-such-grid"},
	} {
		if _, err := plan.Restrict(bad); err == nil {
			t.Fatalf("Restrict(%v) must fail", bad)
		}
	}
	if _, err := plan.Restrict([]string{"FGM-linf", "FGM-linf"}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatal("duplicate grids must name the duplication")
	}
}

// TestPlanCellAt matches eps under the crafting cache's quantisation.
func TestPlanCellAt(t *testing.T) {
	plan, err := validSpec().Plan()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := plan.CellAt("FGM-linf", 0.1+1e-12)
	if !ok || c.Eps != 0.1 || c.Index != 2 {
		t.Fatalf("CellAt(FGM-linf, ~0.1) = (%+v, %v)", c, ok)
	}
	if _, ok := plan.CellAt("FGM-linf", 0.5); ok {
		t.Fatal("CellAt must miss on an eps outside the sweep")
	}
	if _, ok := plan.CellAt("PGD-linf", 0.1); ok {
		t.Fatal("CellAt must miss on a grid outside the plan")
	}
}

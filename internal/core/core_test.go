package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// fixture trains a small LeNet once for all core tests.
type fixture struct {
	net  *nn.Network
	test *dataset.Set
}

var fix *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if fix == nil {
		tr := dataset.Digits(1500, 41)
		test := dataset.Digits(200, 42)
		net := models.LeNet5(1, 28, 28, 10, 43)
		net.Name = "lenet5-test"
		train.Fit(net, tr, train.Config{Epochs: 2, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 2})
		fix = &fixture{net: net, test: test}
	}
	return fix
}

// mustGrid runs c.RobustnessGrid on a background context, which never
// cancels, so any error fails the test.
func mustGrid(t *testing.T, c *Cache, src *nn.Network, victims []Victim, set *dataset.Set, atk attack.Attack, eps []float64, opts Options) *Grid {
	t.Helper()
	g, err := c.RobustnessGrid(context.Background(), src, victims, set, atk, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRobustnessGridShapeAndBaseline(t *testing.T) {
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF", "mul8u_JV3"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	atk := attack.ByName("FGM-linf")
	g := mustGrid(t, NewCache(CacheConfig{}), f.net, victims, f.test, atk, []float64{0, 0.1}, Options{Samples: 80, Seed: 3})
	if len(g.Acc) != 2 || len(g.Acc[0]) != 2 {
		t.Fatalf("grid shape %dx%d", len(g.Acc), len(g.Acc[0]))
	}
	// eps=0 row is clean accuracy: the quantized accurate victim must
	// be close to the float model's accuracy.
	floatAcc := 100 * train.Accuracy(f.net, f.test, 80)
	if diff := g.Acc[0][0] - floatAcc; diff > 5 || diff < -5 {
		t.Fatalf("clean quantized accuracy %f far from float %f", g.Acc[0][0], floatAcc)
	}
	// The attack must not increase accuracy at a real budget.
	if g.Acc[1][0] > g.Acc[0][0] {
		t.Fatalf("FGM increased accuracy: %f -> %f", g.Acc[0][0], g.Acc[1][0])
	}
}

func TestGridDeterminism(t *testing.T) {
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	atk := attack.ByName("RAU-linf")
	a := mustGrid(t, NewCache(CacheConfig{}), f.net, victims, f.test, atk, []float64{0.2}, Options{Samples: 60, Seed: 9})
	b := mustGrid(t, NewCache(CacheConfig{}), f.net, victims, f.test, atk, []float64{0.2}, Options{Samples: 60, Seed: 9})
	if a.Acc[0][0] != b.Acc[0][0] {
		t.Fatalf("grid not deterministic: %f vs %f", a.Acc[0][0], b.Acc[0][0])
	}
}

func TestGridAccessors(t *testing.T) {
	g := &Grid{
		Attack:  "X",
		Eps:     []float64{0, 1},
		Victims: []string{"a", "b"},
		Acc:     [][]float64{{90, 80}, {50, 20}},
	}
	if v, ok := g.At(1, "b"); !ok || v != 20 {
		t.Fatalf("At(1,b) = %f,%v", v, ok)
	}
	if _, ok := g.At(2, "b"); ok {
		t.Fatal("At with unknown eps should report !ok")
	}
	col, ok := g.Column("a")
	if !ok || len(col) != 2 || col[1] != 50 {
		t.Fatalf("Column(a) = %v, %v", col, ok)
	}
	if col, ok := g.Column("zzz"); ok || col != nil {
		t.Fatal("unknown column must report !ok with a nil slice")
	}
	loss, victim, eps := g.MaxAccuracyLoss()
	if loss != 60 || victim != "b" || eps != 1 {
		t.Fatalf("MaxAccuracyLoss = %f %s %f", loss, victim, eps)
	}
}

func TestGridRender(t *testing.T) {
	g := &Grid{
		Attack:  "BIM-linf",
		Dataset: "d",
		Eps:     []float64{0, 0.5},
		Victims: []string{"mul8u_1JFF", "mul8u_JV3"},
		Acc:     [][]float64{{98, 93}, {50, 40}},
	}
	s := g.String()
	if !strings.Contains(s, "1JFF") || !strings.Contains(s, "JV3") {
		t.Fatalf("render missing columns:\n%s", s)
	}
	if !strings.Contains(s, "0.50") {
		t.Fatalf("render missing eps row:\n%s", s)
	}
}

func TestGridAtToleratesEpsRoundoff(t *testing.T) {
	// Budgets produced by arithmetic (0.1*3 != 0.3 in float64) must
	// still be addressable with the literal value.
	g := &Grid{
		Attack:  "X",
		Eps:     []float64{0, 0.1 * 3},
		Victims: []string{"a"},
		Acc:     [][]float64{{90}, {40}},
	}
	if v, ok := g.At(0.3, "a"); !ok || v != 40 {
		t.Fatalf("At(0.3) = %f,%v despite round-off tolerance", v, ok)
	}
	if _, ok := g.At(0.31, "a"); ok {
		t.Fatal("At must not match a genuinely different budget")
	}
}

func TestMaxAccuracyLossBaselinesEpsZeroRow(t *testing.T) {
	// The clean row is not first: the baseline must still be eps==0.
	g := &Grid{
		Attack:  "X",
		Eps:     []float64{0.5, 0},
		Victims: []string{"a"},
		Acc:     [][]float64{{50}, {90}},
	}
	loss, victim, eps := g.MaxAccuracyLoss()
	if loss != 40 || victim != "a" || eps != 0.5 {
		t.Fatalf("MaxAccuracyLoss = %f %s %f, want 40 a 0.5", loss, victim, eps)
	}
	// Without a zero row, the smallest budget anchors the baseline.
	g2 := &Grid{
		Attack:  "X",
		Eps:     []float64{0.4, 0.1},
		Victims: []string{"a"},
		Acc:     [][]float64{{60}, {80}},
	}
	if loss, _, _ := g2.MaxAccuracyLoss(); loss != 20 {
		t.Fatalf("fallback baseline loss = %f, want 20", loss)
	}
}

func TestCraftedCacheReuse(t *testing.T) {
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	atk := attack.ByName("PGD-linf")
	opts := Options{Samples: 40, Seed: 13}
	a := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0, 0.1}, opts)
	filled := c.CraftedLen()
	if filled != 2 {
		t.Fatalf("cache holds %d batches after a 2-eps grid, want 2", filled)
	}
	st := c.Stats()
	if st.CraftHits != 0 || st.CraftMisses != 2 {
		t.Fatalf("first sweep stats = %d hits / %d misses, want 0/2", st.CraftHits, st.CraftMisses)
	}
	if st.CraftEntries != 2 || st.CraftBytes <= 0 {
		t.Fatalf("stats gauges = %d entries / %d bytes, want 2 entries and positive bytes", st.CraftEntries, st.CraftBytes)
	}
	// A second identical sweep must reuse every batch and agree exactly.
	b := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0, 0.1}, opts)
	if c.CraftedLen() != filled {
		t.Fatalf("identical sweep re-crafted: %d batches", c.CraftedLen())
	}
	st = c.Stats()
	if st.CraftHits != 2 || st.CraftMisses != 2 {
		t.Fatalf("repeated sweep stats = %d hits / %d misses, want 2/2", st.CraftHits, st.CraftMisses)
	}
	if st.PredHits != 2 || st.PredMisses != 2 {
		t.Fatalf("prediction stats = %d hits / %d misses, want 2/2", st.PredHits, st.PredMisses)
	}
	for ei := range a.Acc {
		if a.Acc[ei][0] != b.Acc[ei][0] {
			t.Fatalf("cached sweep diverged at row %d", ei)
		}
	}
	c.Clear()
	if c.CraftedLen() != 0 {
		t.Fatal("Clear left entries behind")
	}
	st = c.Stats()
	if st.CraftEntries != 0 || st.PredEntries != 0 || st.CraftBytes != 0 {
		t.Fatalf("Clear left gauges behind: %+v", st)
	}
	if st.CraftHits != 2 || st.CraftEvictions != 0 {
		t.Fatalf("explicit Clear must keep lifetime counters and count no eviction: %+v", st)
	}
}

func TestCrossSweepCellReuse(t *testing.T) {
	// The same (attack, eps, seed) cell must be crafted once and agree
	// exactly even when the two sweeps shape their eps grids
	// differently — the rng stream is keyed by the budget value, not
	// its index in the sweep.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	atk := attack.ByName("PGD-linf")
	opts := Options{Samples: 40, Seed: 21}
	a := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0, 0.1, 0.2}, opts)
	filled := c.CraftedLen() // clean batch + eps 0.1 + eps 0.2
	if filled != 3 {
		t.Fatalf("cache holds %d batches, want 3", filled)
	}
	b := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.05, 0.1}, opts)
	if c.CraftedLen() != filled+1 {
		t.Fatalf("misaligned sweep re-crafted shared cells: %d batches, want %d", c.CraftedLen(), filled+1)
	}
	va, _ := a.At(0.1, "mul8u_1JFF")
	vb, _ := b.At(0.1, "mul8u_1JFF")
	if va != vb {
		t.Fatalf("shared (attack, eps, seed) cell diverged across sweeps: %f vs %f", va, vb)
	}
}

func TestCraftedCacheEpsRoundoff(t *testing.T) {
	// Budgets the Grid API treats as equal (within epsTolerance) must
	// hit the same crafted batch: 0.1*3 and the literal 0.3 are one
	// cell.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	atk := attack.ByName("PGD-linf")
	opts := Options{Samples: 30, Seed: 8}
	a := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.1 * 3}, opts)
	filled := c.CraftedLen()
	b := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.3}, opts)
	if c.CraftedLen() != filled {
		t.Fatalf("round-off twin budgets crafted separately (%d entries)", c.CraftedLen())
	}
	va, _ := a.At(0.3, "mul8u_1JFF")
	vb, _ := b.At(0.3, "mul8u_1JFF")
	if va != vb {
		t.Fatalf("round-off twin budgets disagree: %f vs %f", va, vb)
	}
}

func TestCraftedCacheKeysAttackConfig(t *testing.T) {
	// Two PGD instances sharing a Name but differing in Steps must not
	// share crafted batches.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	short := attack.NewPGD(attack.Linf)
	long := attack.NewPGD(attack.Linf)
	long.Steps = 40
	opts := Options{Samples: 30, Seed: 5}
	mustGrid(t, c, f.net, victims, f.test, short, []float64{0.1}, opts)
	filled := c.CraftedLen()
	mustGrid(t, c, f.net, victims, f.test, long, []float64{0.1}, opts)
	if c.CraftedLen() != filled+1 {
		t.Fatalf("differently-configured attacks shared a cache entry (%d entries)", c.CraftedLen())
	}
}

func TestCraftedCacheKeysSetContent(t *testing.T) {
	// Two separately loaded test sets with equal content (each victim
	// model's own copy of one dataset) must share one crafted batch,
	// the clean eps=0 batch included; a set differing in one label or
	// one pixel, or in sample shape, must not.
	f := getFixture(t)
	clone := func(src *dataset.Set) *dataset.Set {
		out := &dataset.Set{Name: src.Name, Y: append([]int(nil), src.Y...), Classes: src.Classes}
		for _, x := range src.X {
			out.X = append(out.X, x.Clone())
		}
		return out
	}
	a, b := clone(f.test.Slice(12)), clone(f.test.Slice(12))
	c := NewCache(CacheConfig{})
	atk := attack.ByName("FGM-linf")
	opts := Options{Samples: 12, Seed: 4}
	for _, eps := range []float64{0, 0.1} {
		advA, _, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, a, atk), eps, opts)
		if err != nil {
			t.Fatal(err)
		}
		advB, hit, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, b, atk), eps, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !hit || advA != advB {
			t.Fatalf("eps=%v: equal-content set re-crafted (hit %v, same batch %v)", eps, hit, advA == advB)
		}
	}
	if st := c.Stats(); st.CraftMisses != 2 || st.CraftHits != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2/2 (one craft per budget)", st.CraftHits, st.CraftMisses)
	}

	key := func(set *dataset.Set) craftKey { return NewCraftTarget(f.net, set, atk).key(EpsKey(0.1), opts.Seed) }
	label, pixel, shape := clone(a), clone(a), clone(a)
	label.Y[3] = (label.Y[3] + 1) % label.Classes
	pixel.X[5].Data[100] += 0.5
	for i, x := range shape.X {
		shape.X[i] = x.Reshape(len(x.Data))
	}
	for name, set := range map[string]*dataset.Set{"label": label, "pixel": pixel, "shape": shape} {
		if key(set) == key(a) {
			t.Errorf("a set differing in one %s shares the craft key", name)
		}
	}
}

func TestCraftedCacheInvalidatedByRetraining(t *testing.T) {
	// Mutating weights in place must miss the old cache entries — the
	// keys fingerprint the network, so a fine-tuned model never
	// replays adversarial examples crafted against its old weights.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	atk := attack.ByName("FGM-linf")
	opts := Options{Samples: 30, Seed: 9}
	mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.1}, opts)
	filled := c.CraftedLen()
	p := f.net.Params()[0]
	orig := p.W[0]
	p.W[0] += 0.25
	mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.1}, opts)
	p.W[0] = orig
	if c.CraftedLen() != filled+1 {
		t.Fatalf("retrained network reused stale crafted batch (%d entries, want %d)", c.CraftedLen(), filled+1)
	}
}

func TestCraftedCacheBudgetEviction(t *testing.T) {
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget below two 20-sample batches: the second store must reset
	// the cache instead of growing it. The bound lives in the cache
	// instance, so no package state is mutated.
	c := NewCache(CacheConfig{CraftBudget: int64(30 * f.test.X[0].Len())})
	opts := Options{Samples: 20, Seed: 6}
	atk := attack.ByName("FGM-linf")
	mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.1}, opts)
	mustGrid(t, c, f.net, victims, f.test, atk, []float64{0.2}, opts)
	if n := c.CraftedLen(); n != 1 {
		t.Fatalf("cache holds %d entries over budget, want 1 after epoch eviction", n)
	}
	if st := c.Stats(); st.CraftEvictions != 1 || st.PredEvictions != 1 {
		t.Fatalf("budget trip recorded %d craft / %d pred evictions, want 1/1 (Clear wipes both sides)", st.CraftEvictions, st.PredEvictions)
	}
}

// TestPredMaxEvictsPredictionsOnly: tripping PredMax resets the
// prediction memos alone; the crafted batches stay and the craft side
// records no eviction.
func TestPredMaxEvictsPredictionsOnly(t *testing.T) {
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_KEM"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{PredMax: 2})
	opts := Options{Samples: 20, Seed: 6}
	atk := attack.ByName("FGM-linf")
	mustGrid(t, c, f.net, victims[:2], f.test, atk, []float64{0.1}, opts)
	if st := c.Stats(); st.PredEntries != 2 || st.PredEvictions != 0 || st.CraftEntries != 1 {
		t.Fatalf("stats %+v, want 2 predictions, 1 batch and no eviction at the cap", st)
	}
	mustGrid(t, c, f.net, victims[2:], f.test, atk, []float64{0.1}, opts)
	st := c.Stats()
	if st.PredEvictions != 1 || st.PredEntries != 1 {
		t.Fatalf("PredMax trip left %d predictions after %d evictions, want 1 after 1", st.PredEntries, st.PredEvictions)
	}
	if st.CraftEvictions != 0 || st.CraftEntries != 1 || st.CraftHits != 1 || st.CraftMisses != 1 {
		t.Fatalf("PredMax trip touched the crafted batches: %+v", st)
	}
	// The first victims' predictions are gone; the batch they score is
	// still served from memory.
	mustGrid(t, c, f.net, victims[:1], f.test, atk, []float64{0.1}, opts)
	if st := c.Stats(); st.PredMisses != 4 || st.CraftHits != 2 {
		t.Fatalf("after the trip: %d prediction misses, %d craft hits; want 4 and 2", st.PredMisses, st.CraftHits)
	}
}

// TestCompiledVictimMemoCap: the compiled-victim memo holds
// maxCompiled configurations; the next distinct one starts a new epoch,
// so the first configuration compiles again.
func TestCompiledVictimMemoCap(t *testing.T) {
	f := getFixture(t)
	c := NewCache(CacheConfig{})
	// Each calibration size is a distinct axnn.ConfigKey.
	build := func(calib int) {
		t.Helper()
		if _, err := c.AxVictims(f.net, f.test.Slice(calib), []string{"mul8u_1JFF"}, axnn.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= maxCompiled; n++ {
		build(n)
	}
	build(1)
	if st := c.Stats(); st.Compiles != maxCompiled || st.CompileHits != 1 {
		t.Fatalf("%d configurations: %d compiles, %d hits; want %d and 1", maxCompiled, st.Compiles, st.CompileHits, maxCompiled)
	}
	build(maxCompiled + 1)
	build(1)
	if st := c.Stats(); st.Compiles != maxCompiled+2 || st.CompileHits != 1 {
		t.Fatalf("past the cap: %d compiles, %d hits; want %d and 1 (the first configuration recompiled)", st.Compiles, st.CompileHits, maxCompiled+2)
	}
}

func TestBuildAxVictimsUnknownMultiplier(t *testing.T) {
	f := getFixture(t)
	if _, err := BuildAxVictims(f.net, f.test, []string{"mul8u_NOPE"}, axnn.Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestQuantPair(t *testing.T) {
	f := getFixture(t)
	pair, err := QuantPair(f.net, f.test, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pair) != 2 || pair[0].Name != "float" || pair[1].Name != "q8" {
		t.Fatalf("QuantPair = %v", []string{pair[0].Name, pair[1].Name})
	}
}

func TestCacheIsolation(t *testing.T) {
	// Two caches over the same cells never observe each other's
	// entries — the property that lets two engines coexist in one
	// process.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(CacheConfig{})
	c2 := NewCache(CacheConfig{})
	atk := attack.ByName("FGM-linf")
	mustGrid(t, c1, f.net, victims, f.test, atk, []float64{0, 0.1}, Options{Samples: 30, Seed: 3})
	if c1.CraftedLen() != 2 || c2.CraftedLen() != 0 {
		t.Fatalf("cache leak: c1=%d c2=%d, want 2/0", c1.CraftedLen(), c2.CraftedLen())
	}
	mustGrid(t, c2, f.net, victims, f.test, atk, []float64{0, 0.1}, Options{Samples: 30, Seed: 3})
	if c2.CraftedLen() != 2 {
		t.Fatalf("second cache crafted %d batches, want its own 2", c2.CraftedLen())
	}
	c1.Clear()
	if c1.CraftedLen() != 0 || c2.CraftedLen() != 2 {
		t.Fatalf("Clear crossed caches: c1=%d c2=%d", c1.CraftedLen(), c2.CraftedLen())
	}
}

func TestRobustnessGridCtxCancellation(t *testing.T) {
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCache(CacheConfig{})
	g, err := c.RobustnessGrid(ctx, f.net, victims, f.test, attack.ByName("PGD-linf"), []float64{0.1, 0.2}, Options{Samples: 40, Seed: 11})
	if g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned (%v, %v), want (nil, context.Canceled)", g, err)
	}
	if c.CraftedLen() != 0 {
		t.Fatalf("cancelled sweep memoised %d partial batches", c.CraftedLen())
	}
}

func TestSetAttackCraftedOnceAndCached(t *testing.T) {
	// Set-level attacks (UAP) craft one image-agnostic perturbation
	// per (attack, eps, seed) cell: crafted once, cached like any
	// batch, deterministic across fresh caches and worker counts.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	atk := attack.NewUAP(attack.Linf)
	atk.Iters = 3
	c := NewCache(CacheConfig{})
	opts := Options{Samples: 40, Seed: 19, Workers: 1}
	a := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0, 0.1}, opts)
	if n := c.CraftedLen(); n != 2 {
		t.Fatalf("cache holds %d batches after a 2-eps UAP grid, want 2", n)
	}
	b := mustGrid(t, c, f.net, victims, f.test, atk, []float64{0, 0.1}, opts)
	if n := c.CraftedLen(); n != 2 {
		t.Fatalf("identical UAP sweep re-crafted: %d batches", n)
	}
	// A fresh cache and a different worker count must reproduce the
	// grid bit for bit: set crafting is one call, not chunked work.
	opts2 := Options{Samples: 40, Seed: 19, Workers: 4}
	d := mustGrid(t, NewCache(CacheConfig{}), f.net, victims, f.test, atk, []float64{0, 0.1}, opts2)
	for ei := range a.Acc {
		if a.Acc[ei][0] != b.Acc[ei][0] || a.Acc[ei][0] != d.Acc[ei][0] {
			t.Fatalf("UAP grid not reproducible at row %d: %v %v %v", ei, a.Acc[ei][0], b.Acc[ei][0], d.Acc[ei][0])
		}
	}
	// A different seed crafts a different universal perturbation.
	test := f.test.Slice(40)
	adv1, hit, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, test, atk), 0.1, opts)
	if err != nil || !hit {
		t.Fatalf("expected a cache hit for the crafted UAP batch (err=%v hit=%v)", err, hit)
	}
	adv2, _, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, test, atk), 0.1, Options{Samples: 40, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range adv1.Data {
		if adv1.Data[i] != adv2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical universal perturbation")
	}
}

func TestCraftedCacheKeysNewAttackKnobs(t *testing.T) {
	// The new family's knobs — UAP iterations, PGD restart counts —
	// must key distinct cache entries, exactly like BIM/PGD steps.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	opts := Options{Samples: 30, Seed: 5}
	uapShort := attack.NewUAP(attack.Linf)
	uapShort.Iters = 2
	uapLong := attack.NewUAP(attack.Linf)
	uapLong.Iters = 4
	mustGrid(t, c, f.net, victims, f.test, uapShort, []float64{0.1}, opts)
	filled := c.CraftedLen()
	mustGrid(t, c, f.net, victims, f.test, uapLong, []float64{0.1}, opts)
	if c.CraftedLen() != filled+1 {
		t.Fatalf("differently-configured UAPs shared a cache entry (%d entries)", c.CraftedLen())
	}
	plain := attack.NewPGD(attack.Linf)
	restarted := attack.NewRestart(attack.NewPGD(attack.Linf), 3)
	mustGrid(t, c, f.net, victims, f.test, plain, []float64{0.1}, opts)
	filled = c.CraftedLen()
	mustGrid(t, c, f.net, victims, f.test, restarted, []float64{0.1}, opts)
	if c.CraftedLen() != filled+1 {
		t.Fatalf("restarted PGD shared plain PGD's cache entry (%d entries)", c.CraftedLen())
	}
}

func TestSetAttackObservesCancellation(t *testing.T) {
	// The set-level crafting path must return ctx.Err() without
	// memoising the partial perturbation.
	f := getFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCache(CacheConfig{})
	atk := attack.NewUAP(attack.Linf)
	adv, hit, err := c.CraftedBatch(ctx, NewCraftTarget(f.net, f.test.Slice(20), atk), 0.1, Options{Samples: 20, Seed: 3})
	if adv != nil || hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled set crafting returned (%v, %v, %v), want (nil, false, context.Canceled)", adv, hit, err)
	}
	if c.CraftedLen() != 0 {
		t.Fatalf("cancelled set crafting memoised %d batches", c.CraftedLen())
	}
}

// batchCounter is a victim that counts its LogitsBatch calls.
type batchCounter struct {
	m     *axnn.Network
	calls int
}

func (b *batchCounter) Logits(x *tensor.T) []float32 { return b.m.Logits(x) }

func (b *batchCounter) LogitsBatch(xs *tensor.T) *tensor.T {
	b.calls++
	return b.m.LogitsBatch(xs)
}

func TestPredictionsKeyBatchContent(t *testing.T) {
	// Two budgets can craft byte-identical batches (FGM saturates at
	// large eps): a victim must score equal content once, whatever the
	// tensor instance, and a batch differing in one value must not hit.
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_1JFF", "mul8u_JV3"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheConfig{})
	opts := Options{Seed: 4, Workers: 1, Batch: 16}
	adv, _, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, f.test.Slice(16), attack.ByName("FGM-linf")), 0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := adv.Clone()
	other := adv.Clone()
	other.Data[7] += 0.25
	for _, v := range victims {
		m := &batchCounter{m: v.Factory().(*axnn.Network)}
		want, hit, err := c.Predictions(context.Background(), m, adv, opts)
		if err != nil || hit {
			t.Fatalf("%s: first scoring hit=%v err=%v", v.Name, hit, err)
		}
		got, hit, err := c.Predictions(context.Background(), m, same, opts)
		if err != nil || !hit || !slices.Equal(got, want) {
			t.Fatalf("%s: equal-content batch hit=%v err=%v", v.Name, hit, err)
		}
		if m.calls != 1 {
			t.Fatalf("%s: %d LogitsBatch calls for two equal batches, want 1", v.Name, m.calls)
		}
		if _, hit, err := c.Predictions(context.Background(), m, other, opts); err != nil || hit || m.calls != 2 {
			t.Fatalf("%s: a batch differing in one value hit=%v calls=%d err=%v", v.Name, hit, m.calls, err)
		}
	}
	if newBatchID(adv) == newBatchID(adv.Reshape(16, 784)) {
		t.Fatal("a reshaped batch shares the content identity")
	}
}

package defense

import (
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

var testPool = []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_L40"}

func testEnsemble(t *testing.T, seed int64) *Ensemble {
	t.Helper()
	m := fixture(t)
	e, err := BuildEnsemble(core.NewCache(core.CacheConfig{}), m.Net, m.Test, testPool, axnn.Options{ApproxDense: true}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEnsembleBatchMatchesScalar pins the harness contract: row r of
// LogitsBatch is bit-identical to row r scored alone, as a one-sample
// batch, whatever member each row draws.
func TestEnsembleBatchMatchesScalar(t *testing.T) {
	e := testEnsemble(t, 7)
	m := fixture(t)
	n := 24
	xs := tensor.Stack(m.Test.X[:n])
	batch := e.LogitsBatch(xs)
	for r := 0; r < n; r++ {
		want := e.LogitsBatch(xs.RowView(r, r+1)).Data
		got := batch.Row(r).Data
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d logit %d: batch %v != one-sample %v", r, i, got[i], want[i])
			}
		}
	}
}

// TestEnsembleDrawIsDeterministicButSpread: the same query always gets
// the same answer (replayable reports), while distinct queries spread
// over more than one pool member (a moving target, not a constant
// pick).
func TestEnsembleDrawIsDeterministicButSpread(t *testing.T) {
	e := testEnsemble(t, 7)
	m := fixture(t)
	x := m.Test.X[0].Unsqueeze()
	a, b := e.LogitsBatch(x).Data, e.LogitsBatch(x).Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same query answered by different members across calls")
		}
	}
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[e.pickIdx(m.Test.X[i])] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 distinct queries all drew the same member — no moving target")
	}
	// A different seed re-keys the draw: at least one of the first
	// queries lands on a different member.
	e2 := testEnsemble(t, 8)
	moved := false
	for i := 0; i < 64 && !moved; i++ {
		moved = e.pickIdx(m.Test.X[i]) != e2.pickIdx(m.Test.X[i])
	}
	if !moved {
		t.Fatal("re-seeding the ensemble did not change any draw")
	}
}

// TestEnsembleSampleModelCoversPool: the adaptive adversary's draw
// distribution reaches every member.
func TestEnsembleSampleModelCoversPool(t *testing.T) {
	e := testEnsemble(t, 7)
	rng := rand.New(rand.NewSource(1))
	seen := map[attack.Model]int{}
	for i := 0; i < 300; i++ {
		seen[e.SampleModel(rng)]++
	}
	if len(seen) != e.Size() {
		t.Fatalf("SampleModel reached %d of %d members", len(seen), e.Size())
	}
}

// TestEnsembleSamplerKeyIsolation: pools, seeds, and quantization all
// change the key crafted-example caches isolate on.
func TestEnsembleSamplerKeyIsolation(t *testing.T) {
	m := fixture(t)
	build := func(calib *dataset.Set, pool []string, opts axnn.Options, seed int64) string {
		e, err := BuildEnsemble(core.NewCache(core.CacheConfig{}), m.Net, calib, pool, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e.SamplerKey()
	}
	base := build(m.Test, testPool, axnn.Options{ApproxDense: true}, 7)
	if build(m.Test, testPool[:2], axnn.Options{ApproxDense: true}, 7) == base {
		t.Fatal("different pools share a sampler key")
	}
	if build(m.Test, testPool, axnn.Options{ApproxDense: true}, 8) == base {
		t.Fatal("different seeds share a sampler key")
	}
	if build(m.Test, testPool, axnn.Options{Bits: 6, ApproxDense: true}, 7) == base {
		t.Fatal("different quantization shares a sampler key")
	}
	if build(m.Train, testPool, axnn.Options{ApproxDense: true}, 7) == base {
		t.Fatal("different calibration sets share a sampler key")
	}
	if build(m.Test, testPool, axnn.Options{ApproxDense: true, NoZeroPointCorrection: true}, 7) == base {
		t.Fatal("dropping the zero-point correction keeps the sampler key")
	}
	// Bits 0 means 8: the two compile identically, so they share a key.
	if build(m.Test, testPool, axnn.Options{Bits: 8, ApproxDense: true}, 7) != base {
		t.Fatal("bits 0 and bits 8 split the sampler key")
	}
	if build(m.Test, testPool, axnn.Options{ApproxDense: true}, 7) != base {
		t.Fatal("identical configuration must reproduce the sampler key")
	}
}

func TestBuildEnsembleRejectsEmptyAndUnknown(t *testing.T) {
	m := fixture(t)
	if _, err := BuildEnsemble(core.NewCache(core.CacheConfig{}), m.Net, m.Test, nil, axnn.Options{}, 1); err == nil {
		t.Fatal("empty pool must fail")
	}
	if _, err := BuildEnsemble(core.NewCache(core.CacheConfig{}), m.Net, m.Test, []string{"mul8u_NOPE"}, axnn.Options{}, 1); err == nil {
		t.Fatal("unknown multiplier must fail")
	}
}

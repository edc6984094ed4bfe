package attack

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// batchFixture packs the first n correctly-shaped test samples plus
// per-sample rng streams seeded the way core's harness seeds them.
func batchFixture(t *testing.T, n int) (GradModel, *tensor.T, []int, func() []*rand.Rand) {
	t.Helper()
	m, set := trainedModel(t)
	xs := make([]*tensor.T, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		xs[i] = set.X[i]
		labels[i] = set.Y[i]
	}
	rngs := func() []*rand.Rand {
		out := make([]*rand.Rand, n)
		for i := range out {
			out[i] = rand.New(rand.NewSource(int64(1000 + i)))
		}
		return out
	}
	return m, tensor.Stack(xs), labels, rngs
}

// assertMatchesSingletons is the chunk-independence property core's
// chunked crafting rests on: PerturbBatch row r must equal the same
// attack run on sample r alone, as a one-sample batch on a fresh copy
// of rng stream r, bit for bit.
func assertMatchesSingletons(t *testing.T, atk Attack, m Model, batch *tensor.T, labels []int, eps float64, mkRngs func() []*rand.Rand) {
	t.Helper()
	adv := atk.PerturbBatch(m, batch, labels, eps, mkRngs())
	if !adv.SameShape(batch) {
		t.Fatalf("%s batch shape %v != %v", atk.Name(), adv.Shape, batch.Shape)
	}
	rngs := mkRngs()
	for r := 0; r < batch.Rows(); r++ {
		want := atk.PerturbBatch(m, batch.RowView(r, r+1), labels[r:r+1], eps, rngs[r:r+1])
		got := adv.Row(r)
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("%s sample %d pixel %d: batch %v != one-sample batch %v",
					atk.Name(), r, j, got.Data[j], want.Data[j])
			}
		}
	}
}

// TestBatchedGradientAttacksMatchScalar: every gradient attack, in both
// norms, crafts each row of a batch exactly as it crafts that sample
// alone.
func TestBatchedGradientAttacksMatchScalar(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 6)
	for _, name := range []string{"FGM-l2", "FGM-linf", "BIM-l2", "BIM-linf", "PGD-l2", "PGD-linf", "MIFGSM-l2", "MIFGSM-linf"} {
		assertMatchesSingletons(t, ByName(name), m, batch, labels, 0.2, mkRngs)
	}
}

// TestDecisionAttacksMatchSingletons: CR, RAG and RAU likewise craft
// each row of a batch exactly as they craft that sample alone.
func TestDecisionAttacksMatchSingletons(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 5)
	for _, name := range []string{"CR-l2", "RAG-l2", "RAU-l2", "RAU-linf"} {
		assertMatchesSingletons(t, ByName(name), m, batch, labels, 0.4, mkRngs)
	}
}

// thresholdModel is a two-class fake: it predicts class 1 exactly when
// a row's first pixel exceeds 0.6, and records how many rows each call
// scores.
type thresholdModel struct{ calls []int }

func (m *thresholdModel) LogitsBatch(xs *tensor.T) *tensor.T {
	m.calls = append(m.calls, xs.Rows())
	out := tensor.New(xs.Rows(), 2)
	for r := 0; r < xs.Rows(); r++ {
		if xs.Row(r).Data[0] > 0.6 {
			out.Data[2*r+1] = 1
		} else {
			out.Data[2*r] = 1
		}
	}
	return out
}

// TestNoiseAttackRowsFooledAtDifferentRepeats: rows that the noise
// fools at different repeats, and rows it never fools, each keep what
// the one-sample protocol keeps — the first fooling sample, or else
// the last repeat's — and each repeat scores only the rows still open.
func TestNoiseAttackRowsFooledAtDifferentRepeats(t *testing.T) {
	// The further a row's first pixel sits below the 0.6 threshold, the
	// later (if ever) a linf-0.05 step crosses it.
	firsts := []float32{0.59, 0.58, 0.575, 0.57, 0.565, 0.56, 0.3, 0.2}
	n := len(firsts)
	xs := tensor.New(n, 4)
	for r, v := range firsts {
		copy(xs.Row(r).Data, []float32{v, 0.5, 0.5, 0.5})
	}
	labels := make([]int, n)
	const eps = 0.05
	mkRngs := func() []*rand.Rand {
		out := make([]*rand.Rand, n)
		for i := range out {
			out[i] = rand.New(rand.NewSource(int64(500 + i)))
		}
		return out
	}
	for _, atk := range []Attack{NewRAU(Linf), NewRAU(L2), NewRAG()} {
		a := atk.(*noiseAttack)
		m := &thresholdModel{}
		adv := atk.PerturbBatch(m, xs, labels, eps, mkRngs())
		for i := 1; i < len(m.calls); i++ {
			if m.calls[i] > m.calls[i-1] {
				t.Fatalf("%s: repeat %d scored %d rows after %d", atk.Name(), i, m.calls[i], m.calls[i-1])
			}
		}
		if len(m.calls) >= a.repeats {
			t.Fatalf("%s: %d scoring calls for %d repeats", atk.Name(), len(m.calls), a.repeats)
		}
		// Replay each row's draws one sample at a time.
		rngs := mkRngs()
		fooledAt := map[int]bool{}
		for r := 0; r < n; r++ {
			x := xs.Row(r)
			var want *tensor.T
			at := -1
			for k := 0; k < a.repeats; k++ {
				d := a.sample(x.Shape, rngs[r])
				for d.LinfNorm() == 0 {
					d = a.sample(x.Shape, rngs[r])
				}
				want = x.Clone()
				if a.norm == Linf {
					want.AddScaled(float32(eps/d.LinfNorm()), d)
				} else {
					stepL2(want, d, eps)
				}
				want.Clamp(0, 1)
				if want.Data[0] > 0.6 {
					at = k
					break
				}
			}
			fooledAt[at] = true
			for j := range want.Data {
				if adv.Row(r).Data[j] != want.Data[j] {
					t.Fatalf("%s row %d (fooled at repeat %d) pixel %d: %v, want %v", atk.Name(), r, at, j, adv.Row(r).Data[j], want.Data[j])
				}
			}
		}
		if !fooledAt[-1] || len(fooledAt) < 3 {
			t.Fatalf("%s: fixture fooled rows at repeats %v; want a never-fooled row and two distinct repeats", atk.Name(), fooledAt)
		}
		assertMatchesSingletons(t, atk, &thresholdModel{}, xs, labels, eps, mkRngs)
	}
}

// TestBatchNormBudgetsRespected: the batched paths must keep every
// row of the perturbation within the attack's norm budget.
func TestBatchNormBudgetsRespected(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 5)
	const eps = 0.3
	for _, name := range []string{"FGM-l2", "BIM-linf", "PGD-l2", "PGD-linf", "RAU-linf"} {
		adv := ByName(name).PerturbBatch(m, batch, labels, eps, mkRngs())
		d := tensor.Sub(adv, batch)
		var norms []float64
		if ByName(name).Norm() == Linf {
			norms = tensor.LinfNormRows(d)
		} else {
			norms = tensor.L2NormRows(d)
		}
		for r, got := range norms {
			if got > eps*1.0001 {
				t.Errorf("%s row %d exceeded budget: %f > %f", name, r, got, eps)
			}
		}
	}
}

// TestBatchZeroEps: eps=0 must be the identity on the whole batch.
func TestBatchZeroEps(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 4)
	for _, name := range []string{"PGD-linf", "CR-l2"} {
		adv := ByName(name).PerturbBatch(m, batch, labels, 0, mkRngs())
		for j := range batch.Data {
			if adv.Data[j] != batch.Data[j] {
				t.Fatalf("%s modified the batch at eps=0", name)
			}
		}
	}
}

// TestBatchInputNeverMutated: crafting never writes to its input batch.
func TestBatchInputNeverMutated(t *testing.T) {
	m, batch, labels, mkRngs := batchFixture(t, 4)
	orig := batch.Clone()
	for _, name := range []string{"FGM-linf", "PGD-l2", "RAU-linf"} {
		ByName(name).PerturbBatch(m, batch, labels, 0.3, mkRngs())
		for j := range batch.Data {
			if batch.Data[j] != orig.Data[j] {
				t.Fatalf("%s mutated its input batch", name)
			}
		}
	}
}

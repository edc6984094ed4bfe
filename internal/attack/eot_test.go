package attack

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// biasModel is a deterministic fake configuration: the source model's
// logits with one class boosted, so distinct pool members disagree.
type biasModel struct {
	base  Model
	class int
	boost float32
}

func (b *biasModel) LogitsBatch(xs *tensor.T) *tensor.T {
	l := b.base.LogitsBatch(xs).Clone()
	for r := 0; r < l.Rows(); r++ {
		l.Row(r).Data[b.class] += b.boost
	}
	return l
}

// fakeSampler draws uniformly from a fixed pool.
type fakeSampler struct {
	pool []Model
	key  string
}

func (s *fakeSampler) LogitsBatch(xs *tensor.T) *tensor.T { return s.pool[0].LogitsBatch(xs) }
func (s *fakeSampler) SampleModel(rng *rand.Rand) Model {
	return s.pool[rng.Intn(len(s.pool))]
}
func (s *fakeSampler) SamplerKey() string { return s.key }

func testSampler(m Model, key string) *fakeSampler {
	return &fakeSampler{
		pool: []Model{
			&biasModel{base: m, class: 0, boost: 0.5},
			&biasModel{base: m, class: 7, boost: 0.5},
			m,
		},
		key: key,
	}
}

func eotRngs(n int, seed int64) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)*1_000_003))
	}
	return rngs
}

func TestEOTZeroEpsIdentity(t *testing.T) {
	m, set := trainedModel(t)
	a := NewEOT(testSampler(m, "t"), Linf, 3)
	x, y := correctSample(t, m, set)
	adv := perturb(a, m, x, y, 0, rand.New(rand.NewSource(1)))
	for i := range x.Data {
		if adv.Data[i] != x.Data[i] {
			t.Fatal("EOT at eps=0 must be the identity")
		}
	}
}

// TestEOTBudgetAndBox: the crafted batch stays inside the eps-ball and
// the pixel box for both norms.
func TestEOTBudgetAndBox(t *testing.T) {
	m, set := trainedModel(t)
	for _, norm := range []Norm{Linf, L2} {
		a := NewEOT(testSampler(m, "t"), norm, 2)
		const eps = 0.1
		n := 6
		xs := tensor.Stack(set.X[:n])
		adv := a.PerturbBatch(m, xs, set.Y[:n], eps, eotRngs(n, 9))
		for r := 0; r < n; r++ {
			var linf float64
			var l2 float64
			ar, xr := adv.Row(r), xs.Row(r)
			for i := range ar.Data {
				d := float64(ar.Data[i] - xr.Data[i])
				if d < 0 {
					d = -d
				}
				if d > linf {
					linf = d
				}
				l2 += d * d
				if ar.Data[i] < 0 || ar.Data[i] > 1 {
					t.Fatalf("%s: pixel %g outside [0,1]", a.Name(), ar.Data[i])
				}
			}
			if norm == Linf && linf > eps*1.0001 {
				t.Fatalf("linf budget violated: %g > %g", linf, eps)
			}
			if norm == L2 && l2 > eps*eps*1.0002 {
				t.Fatalf("l2 budget violated: %g > %g", l2, eps*eps)
			}
		}
	}
}

// TestEOTBatchMatchesScalar pins the chunk-independence contract every
// attack carries: PerturbBatch row r equals the attack on sample r
// alone, as a one-sample batch under the same rng seed, bit for bit.
func TestEOTBatchMatchesScalar(t *testing.T) {
	m, set := trainedModel(t)
	a := NewEOT(testSampler(m, "t"), Linf, 3)
	const eps = 0.08
	n := 5
	xs := tensor.Stack(set.X[:n])
	assertMatchesSingletons(t, a, m, xs, set.Y[:n], eps, func() []*rand.Rand { return eotRngs(n, 17) })
}

// TestEOTConfigKeyIsolatesTargets: two EOT instances over different
// defenses (or sample counts) must never share crafted-example cache
// entries.
func TestEOTConfigKeyIsolatesTargets(t *testing.T) {
	m, _ := trainedModel(t)
	a := NewEOT(testSampler(m, "pool-a"), Linf, 3)
	b := NewEOT(testSampler(m, "pool-b"), Linf, 3)
	c := NewEOT(testSampler(m, "pool-a"), Linf, 5)
	if ConfigKey(a) == ConfigKey(b) {
		t.Fatal("distinct targets share a ConfigKey")
	}
	if ConfigKey(a) == ConfigKey(c) {
		t.Fatal("distinct sample counts share a ConfigKey")
	}
	if a.Name() != "EOT-PGD-linf" {
		t.Fatalf("unexpected name %q", a.Name())
	}
	want := fmt.Sprintf("EOT-PGD-linf[steps=20,rel=0.05,samples=3,target=pool-a]")
	if ConfigKey(a) != want {
		t.Fatalf("ConfigKey %q, want %q", ConfigKey(a), want)
	}
}

// TestEOTFoolsSourceModel: with the trivial sampler that always serves
// the source model, EOT degenerates to PGD-with-averaging and must
// still fool the source on most samples at a generous budget — the
// attack does real damage, not just bookkeeping.
func TestEOTFoolsSourceModel(t *testing.T) {
	m, set := trainedModel(t)
	s := &fakeSampler{pool: []Model{m}, key: "self"}
	a := NewEOT(s, Linf, 2)
	const eps = 0.15
	n := 20
	xs := tensor.Stack(set.X[:n])
	adv := a.PerturbBatch(m, xs, set.Y[:n], eps, eotRngs(n, 23))
	fooledCount := 0
	correct := 0
	clean, crafted := tensor.ArgMaxRows(m.LogitsBatch(xs)), tensor.ArgMaxRows(m.LogitsBatch(adv))
	for r := 0; r < n; r++ {
		if clean[r] != set.Y[r] {
			continue // only initially-correct samples count
		}
		correct++
		if crafted[r] != set.Y[r] {
			fooledCount++
		}
	}
	if correct == 0 {
		t.Fatal("model classifies nothing correctly")
	}
	if fooledCount*2 < correct {
		t.Fatalf("EOT fooled only %d/%d initially-correct samples at eps=%g", fooledCount, correct, eps)
	}
}

package attack

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestUAPSingletonParity pins PerturbBatch: each row is PerturbSet
// over that one-sample set on the row's own rng stream, bit for bit.
func TestUAPSingletonParity(t *testing.T) {
	m, set := trainedModel(t)
	xs := tensor.Stack(set.X[:3])
	labels := set.Y[:3]
	mkRngs := func() []*rand.Rand {
		out := make([]*rand.Rand, 3)
		for i := range out {
			out[i] = rand.New(rand.NewSource(int64(11 + i)))
		}
		return out
	}
	for _, n := range []Norm{L2, Linf} {
		a := NewUAP(n)
		batch := a.PerturbBatch(m, xs, labels, 0.3, mkRngs())
		rngs := mkRngs()
		for r := 0; r < xs.Rows(); r++ {
			set := a.PerturbSet(context.Background(), m, xs.RowView(r, r+1), labels[r:r+1], 0.3, rngs[r])
			for i := range set.Data {
				if set.Data[i] != batch.Row(r).Data[i] {
					t.Fatalf("%s row %d: batch and one-sample set crafting diverged at pixel %d", a.Name(), r, i)
				}
			}
		}
	}
}

// TestUAPIsImageAgnostic: the crafted perturbation must be the same
// delta on every row — PerturbSet is exactly Craft's delta added to
// each sample and clamped.
func TestUAPIsImageAgnostic(t *testing.T) {
	m, set := trainedModel(t)
	xs := tensor.Stack(set.X[:8])
	labels := append([]int(nil), set.Y[:8]...)
	const eps = 0.25
	a := NewUAP(Linf)
	delta := a.Craft(context.Background(), m, xs, labels, eps, rand.New(rand.NewSource(21)))
	if got := delta.LinfNorm(); got == 0 || got > eps*1.0001 {
		t.Fatalf("delta linf norm %g, want in (0, %g]", got, eps)
	}
	adv := a.PerturbSet(context.Background(), m, xs, labels, eps, rand.New(rand.NewSource(21)))
	for r := 0; r < xs.Rows(); r++ {
		row, orig := adv.Row(r), xs.Row(r)
		for i := range row.Data {
			want := orig.Data[i] + delta.Data[i]
			if want < 0 {
				want = 0
			} else if want > 1 {
				want = 1
			}
			if row.Data[i] != want {
				t.Fatalf("row %d pixel %d: %g is not clamp(x+delta)=%g", r, i, row.Data[i], want)
			}
		}
	}
}

// TestUAPDeterministicPerSeed: same set, same eps, same seed — same
// crafted batch, bit for bit; a different seed must craft a
// different perturbation (the random init matters).
func TestUAPDeterministicPerSeed(t *testing.T) {
	m, set := trainedModel(t)
	xs := tensor.Stack(set.X[:6])
	labels := set.Y[:6]
	a := NewUAP(Linf)
	one := a.PerturbSet(context.Background(), m, xs, labels, 0.2, rand.New(rand.NewSource(5)))
	two := a.PerturbSet(context.Background(), m, xs, labels, 0.2, rand.New(rand.NewSource(5)))
	for i := range one.Data {
		if one.Data[i] != two.Data[i] {
			t.Fatal("UAP crafting is not deterministic under a fixed seed")
		}
	}
	other := a.PerturbSet(context.Background(), m, xs, labels, 0.2, rand.New(rand.NewSource(6)))
	same := true
	for i := range one.Data {
		if one.Data[i] != other.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds crafted identical universal perturbations")
	}
}

// TestUAPChunkIndependence: the crafted delta must not depend on how
// the set size relates to the internal crafting chunk — the
// aggregation is sequential, so a set spanning multiple chunks is
// still one perturbation.
func TestUAPChunkIndependence(t *testing.T) {
	m, set := trainedModel(t)
	n := uapChunk + 3 // force a partial trailing chunk
	if len(set.X) < n {
		t.Skip("fixture set too small")
	}
	xs := tensor.Stack(set.X[:n])
	a := NewUAP(Linf)
	a.Iters = 2
	delta := a.Craft(context.Background(), m, xs, set.Y[:n], 0.2, rand.New(rand.NewSource(9)))
	if delta.LinfNorm() == 0 {
		t.Fatal("crafting over a multi-chunk set produced a zero delta")
	}
}

// TestRestartMatchesScalar is the wrapper's parity contract: batched
// restarted PGD row r equals restarted PGD on sample r alone.
func TestRestartMatchesScalar(t *testing.T) {
	m, set := trainedModel(t)
	xs := tensor.Stack(set.X[:6])
	labels := set.Y[:6]
	mkRngs := func() []*rand.Rand {
		out := make([]*rand.Rand, 6)
		for i := range out {
			out[i] = rand.New(rand.NewSource(int64(300 + i)))
		}
		return out
	}
	assertMatchesSingletons(t, NewRestart(NewPGD(Linf), 3), m, xs, labels, 0.15, mkRngs)
}

// TestRestartKeepsIdentity: the wrapper presents the inner attack's
// Name and Norm (grids stay labelled "PGD-linf") while ConfigKey
// gains the restart count.
func TestRestartKeepsIdentity(t *testing.T) {
	a := NewRestart(NewPGD(Linf), 4)
	if a.Name() != "PGD-linf" {
		t.Fatalf("restart wrapper renamed the attack: %s", a.Name())
	}
	if a.Norm() != Linf {
		t.Fatal("restart wrapper changed the norm")
	}
	if !strings.Contains(ConfigKey(a), "restarts=4") {
		t.Fatalf("ConfigKey %q does not carry the restart count", ConfigKey(a))
	}
	if NewRestart(NewPGD(Linf), 0).Restarts != 1 {
		t.Fatal("restart count must be clamped to at least 1")
	}
}

// TestRestartAtLeastAsStrong: with more chances, restarted PGD must
// fool at least as many samples as a single run with the same
// per-sample streams.
func TestRestartAtLeastAsStrong(t *testing.T) {
	m, set := trainedModel(t)
	plain := NewPGD(Linf)
	restarted := NewRestart(NewPGD(Linf), 3)
	var plainFooled, restartFooled int
	for i := 0; i < 40; i++ {
		x, y := set.X[i], set.Y[i]
		if predict(m, x) != y {
			continue
		}
		if predict(m, perturb(plain, m, x, y, 0.1, rand.New(rand.NewSource(int64(i))))) != y {
			plainFooled++
		}
		if predict(m, perturb(restarted, m, x, y, 0.1, rand.New(rand.NewSource(int64(i))))) != y {
			restartFooled++
		}
	}
	if restartFooled < plainFooled {
		t.Errorf("restarted PGD (%d) weaker than plain PGD (%d)", restartFooled, plainFooled)
	}
}

// TestConfigKeyDistinguishesNewKnobs: every tunable knob of the new
// family must change the cache identity — momentum, UAP iterations,
// restart counts — while equal configurations agree.
func TestConfigKeyDistinguishesNewKnobs(t *testing.T) {
	mi := NewMIFGSM(Linf)
	mi2 := NewMIFGSM(Linf)
	if ConfigKey(mi) != ConfigKey(mi2) {
		t.Fatal("identical MIFGSM configs must share a ConfigKey")
	}
	mi2.Mu = 0.5
	if ConfigKey(mi) == ConfigKey(mi2) {
		t.Fatal("MIFGSM momentum change not reflected in ConfigKey")
	}
	u := NewUAP(Linf)
	u2 := NewUAP(Linf)
	u2.Iters = 3
	if ConfigKey(u) == ConfigKey(u2) {
		t.Fatal("UAP iteration change not reflected in ConfigKey")
	}
	r2 := NewRestart(NewPGD(Linf), 2)
	r3 := NewRestart(NewPGD(Linf), 3)
	if ConfigKey(r2) == ConfigKey(r3) {
		t.Fatal("restart count change not reflected in ConfigKey")
	}
	if ConfigKey(r2) == ConfigKey(NewPGD(Linf)) {
		t.Fatal("restarted PGD must not share plain PGD's cache identity")
	}
	// The wrapper must forward the inner ConfigKey, not degrade to Name.
	tuned := NewUAP(Linf)
	tuned.Iters = 3
	if ConfigKey(NewRestart(tuned, 2)) == ConfigKey(NewRestart(NewUAP(Linf), 2)) {
		t.Fatal("restart wrapper lost the inner attack's tuning knobs")
	}
	seen := map[string]bool{}
	for _, a := range All() {
		k := ConfigKey(a)
		if seen[k] {
			t.Fatalf("duplicate ConfigKey %q in the registry", k)
		}
		seen[k] = true
	}
}

// alwaysRight predicts class 0 for everything, so label-0 samples are
// never fooled — the budget-exhausted path of the noise attacks.
type alwaysRight struct{}

func (alwaysRight) LogitsBatch(xs *tensor.T) *tensor.T { return constModel{}.LogitsBatch(xs) }

// TestNoiseBudgetExhausted: when no repeat fools the model, RAG/RAU
// must return the *last* sampled perturbation, deterministically
// under a fixed seed, with the budget fully spent.
func TestNoiseBudgetExhausted(t *testing.T) {
	x := tensor.FromSlice([]float32{0.4, 0.5, 0.6, 0.5}, 4)
	const eps = 0.2
	for _, atk := range []Attack{NewRAG(), NewRAU(L2), NewRAU(Linf)} {
		a := atk.(*noiseAttack)
		adv := perturb(atk, alwaysRight{}, x, 0, eps, rand.New(rand.NewSource(77)))
		again := perturb(atk, alwaysRight{}, x, 0, eps, rand.New(rand.NewSource(77)))
		for i := range adv.Data {
			if adv.Data[i] != again.Data[i] {
				t.Fatalf("%s budget-exhausted path not deterministic", atk.Name())
			}
		}
		// Replay the rng by hand: the returned sample must be the
		// final repeat's, not an earlier one.
		rng := rand.New(rand.NewSource(77))
		var want *tensor.T
		for r := 0; r < a.repeats; r++ {
			d := a.sample(x.Shape, rng)
			want = x.Clone()
			if a.norm == Linf {
				want.AddScaled(float32(eps/d.LinfNorm()), d)
			} else {
				stepL2(want, d, eps)
			}
			want.Clamp(0, 1)
		}
		for i := range adv.Data {
			if adv.Data[i] != want.Data[i] {
				t.Fatalf("%s did not return the last repeat's sample", atk.Name())
			}
		}
		// The budget was actually spent: the input came back perturbed.
		if d := tensor.Sub(adv, x); d.L2Norm() == 0 {
			t.Fatalf("%s returned the input unperturbed", atk.Name())
		}
	}
}

// TestNoiseResamplesZeroDirections: a sampler that first draws an
// all-zero direction must be redrawn, so eps>0 always perturbs
// instead of silently returning a clone of the input.
func TestNoiseResamplesZeroDirections(t *testing.T) {
	for _, norm := range []Norm{L2, Linf} {
		draws := 0
		a := &noiseAttack{name: "zero-first", norm: norm, repeats: 1,
			sample: func(shape []int, rng *rand.Rand) *tensor.T {
				draws++
				d := tensor.New(shape...)
				if draws > 1 {
					d.Data[0] = 1
				}
				return d
			}}
		x := tensor.FromSlice([]float32{0.5, 0.5}, 2)
		adv := perturb(a, alwaysRight{}, x, 0, 0.25, rand.New(rand.NewSource(1)))
		if draws != 2 {
			t.Fatalf("%s: zero direction drawn %d times, want a resample (2 draws)", norm, draws)
		}
		if d := tensor.Sub(adv, x); d.L2Norm() == 0 {
			t.Fatalf("%s: eps>0 returned an unperturbed input", norm)
		}
	}
}

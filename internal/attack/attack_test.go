package attack

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/train"
)

// trainedModel returns a small trained FFNN plus a labelled test set;
// shared across the attack tests (trained once).
var trainedModel = func() func(t *testing.T) (GradModel, *dataset.Set) {
	var net *GradHolder
	var test *dataset.Set
	return func(t *testing.T) (GradModel, *dataset.Set) {
		t.Helper()
		if net == nil {
			tr := dataset.Digits(1200, 31)
			test = dataset.Digits(120, 32)
			m := models.FFNN(28*28, 10, 33)
			train.Fit(m, tr, train.Config{Epochs: 2, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 1})
			net = &GradHolder{m}
		}
		return net.N, test
	}
}()

// GradHolder pins the concrete type so tests share one instance.
type GradHolder struct{ N GradModel }

// predict scores one sample as a one-sample batch.
func predict(m Model, x *tensor.T) int {
	return tensor.ArgMax(m.LogitsBatch(x.Unsqueeze()).Data)
}

// perturb crafts one sample as a one-sample batch on rng.
func perturb(atk Attack, m Model, x *tensor.T, label int, eps float64, rng *rand.Rand) *tensor.T {
	return atk.PerturbBatch(m, x.Unsqueeze(), []int{label}, eps, []*rand.Rand{rng}).Row(0)
}

func correctSample(t *testing.T, m Model, set *dataset.Set) (*tensor.T, int) {
	t.Helper()
	for i := range set.X {
		if predict(m, set.X[i]) == set.Y[i] {
			return set.X[i], set.Y[i]
		}
	}
	t.Fatal("model classifies nothing correctly")
	return nil, 0
}

func TestAllReturnsAttackRegistry(t *testing.T) {
	if n := len(TableI()); n != 10 {
		t.Fatalf("TableI() has %d attacks, want 10", n)
	}
	// Table I's ten plus the universal/momentum family: MIFGSM and UAP
	// in both norms.
	if n := len(All()); n != 14 {
		t.Fatalf("All() has %d attacks, want 14", n)
	}
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name()] {
			t.Fatalf("duplicate attack name %s", a.Name())
		}
		seen[a.Name()] = true
	}
	for _, name := range []string{"MIFGSM-l2", "MIFGSM-linf", "UAP-l2", "UAP-linf"} {
		if !seen[name] {
			t.Fatalf("registry is missing %s", name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if got := ByName(a.Name()); got == nil || got.Name() != a.Name() {
			t.Fatalf("ByName(%s) failed", a.Name())
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown attack")
	}
}

// TestNormBudgetsRespected: every attack must keep the perturbation
// within its declared norm budget (after box clamping, which can only
// shrink the perturbation).
func TestNormBudgetsRespected(t *testing.T) {
	m, set := trainedModel(t)
	x, y := correctSample(t, m, set)
	const eps = 0.3
	for _, atk := range All() {
		rng := rand.New(rand.NewSource(1))
		adv := perturb(atk, m, x, y, eps, rng)
		d := tensor.Sub(adv, x)
		var got float64
		if atk.Norm() == Linf {
			got = d.LinfNorm()
		} else {
			got = d.L2Norm()
		}
		if got > eps*1.0001 {
			t.Errorf("%s exceeded budget: %f > %f", atk.Name(), got, eps)
		}
	}
}

func TestBoxConstraint(t *testing.T) {
	m, set := trainedModel(t)
	x, y := correctSample(t, m, set)
	for _, atk := range All() {
		rng := rand.New(rand.NewSource(2))
		adv := perturb(atk, m, x, y, 1.0, rng)
		for _, v := range adv.Data {
			if v < 0 || v > 1 {
				t.Errorf("%s left the [0,1] box: %f", atk.Name(), v)
			}
		}
	}
}

func TestZeroEpsilonIsIdentity(t *testing.T) {
	m, set := trainedModel(t)
	x, y := correctSample(t, m, set)
	for _, atk := range All() {
		rng := rand.New(rand.NewSource(3))
		adv := perturb(atk, m, x, y, 0, rng)
		for i := range adv.Data {
			if adv.Data[i] != x.Data[i] {
				t.Errorf("%s modified the input at eps=0", atk.Name())
				break
			}
		}
	}
}

func TestInputNeverMutated(t *testing.T) {
	m, set := trainedModel(t)
	x, y := correctSample(t, m, set)
	orig := x.Clone()
	for _, atk := range All() {
		rng := rand.New(rand.NewSource(4))
		perturb(atk, m, x, y, 0.5, rng)
		for i := range x.Data {
			if x.Data[i] != orig.Data[i] {
				t.Fatalf("%s mutated its input", atk.Name())
			}
		}
	}
}

// TestGradientAttacksReduceAccuracy: FGSM-style attacks at a solid
// budget must fool the source model on a decent fraction of inputs.
func TestGradientAttacksReduceAccuracy(t *testing.T) {
	m, set := trainedModel(t)
	for _, name := range []string{"FGM-linf", "BIM-linf", "PGD-linf"} {
		atk := ByName(name)
		fooledCnt, total := 0, 0
		for i := 0; i < 60; i++ {
			x, y := set.X[i], set.Y[i]
			if predict(m, x) != y {
				continue
			}
			total++
			rng := rand.New(rand.NewSource(int64(i)))
			adv := perturb(atk, m, x, y, 0.25, rng)
			if predict(m, adv) != y {
				fooledCnt++
			}
		}
		if total == 0 {
			t.Fatal("no correct samples")
		}
		if float64(fooledCnt)/float64(total) < 0.5 {
			t.Errorf("%s fooled only %d/%d at eps=0.25", name, fooledCnt, total)
		}
	}
}

// TestIterativeStrongerThanSingleStep: BIM should fool at least as
// often as FGM at the same budget (the reason the paper calls BIM/PGD
// its strongest attacks).
func TestIterativeStrongerThanSingleStep(t *testing.T) {
	m, set := trainedModel(t)
	fgm, bim := ByName("FGM-linf"), ByName("BIM-linf")
	fgmFooled, bimFooled := 0, 0
	for i := 0; i < 80; i++ {
		x, y := set.X[i], set.Y[i]
		if predict(m, x) != y {
			continue
		}
		rng1 := rand.New(rand.NewSource(int64(i)))
		rng2 := rand.New(rand.NewSource(int64(i)))
		if predict(m, perturb(fgm, m, x, y, 0.12, rng1)) != y {
			fgmFooled++
		}
		if predict(m, perturb(bim, m, x, y, 0.12, rng2)) != y {
			bimFooled++
		}
	}
	if bimFooled < fgmFooled {
		t.Errorf("BIM (%d) weaker than FGM (%d)", bimFooled, fgmFooled)
	}
}

func TestCRMovesTowardGray(t *testing.T) {
	atk := NewCR()
	x := tensor.New(1, 4, 4) // all zeros
	adv := perturb(atk, nil, x, 0, 1.0, nil)
	for _, v := range adv.Data {
		if v <= 0 || v > 0.5 {
			t.Fatalf("CR moved pixel to %f, want in (0,0.5]", v)
		}
	}
	// Full budget saturates at exactly gray.
	advFull := perturb(atk, nil, x, 0, 1e9, nil)
	for _, v := range advFull.Data {
		if v != 0.5 {
			t.Fatalf("CR with huge budget should reach 0.5, got %f", v)
		}
	}
}

func TestNoiseAttacksDeterministicPerRNG(t *testing.T) {
	m, set := trainedModel(t)
	x, y := correctSample(t, m, set)
	for _, name := range []string{"RAG-l2", "RAU-l2", "RAU-linf"} {
		atk := ByName(name)
		a := perturb(atk, m, x, y, 0.5, rand.New(rand.NewSource(42)))
		b := perturb(atk, m, x, y, 0.5, rand.New(rand.NewSource(42)))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s not deterministic under a fixed rng", name)
			}
		}
	}
}

func TestGradientAttackRequiresGradModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-gradient model")
		}
	}()
	perturb(NewFGM(Linf), constModel{}, tensor.New(2), 0, 0.1, rand.New(rand.NewSource(1)))
}

// constModel scores every row [1, 0] and has no gradients.
type constModel struct{}

func (constModel) LogitsBatch(xs *tensor.T) *tensor.T {
	out := tensor.New(xs.Rows(), 2)
	for r := 0; r < xs.Rows(); r++ {
		out.Data[2*r] = 1
	}
	return out
}

func TestNormStrings(t *testing.T) {
	if L2.String() != "l2" || Linf.String() != "linf" {
		t.Fatal("norm names wrong")
	}
}

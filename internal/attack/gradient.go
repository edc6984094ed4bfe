package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// FGM is the Fast Gradient Method: a single step of size eps along the
// loss gradient — the sign of the gradient for linf (FGSM), the
// L2-normalised gradient for l2.
type FGM struct{ norm Norm }

// NewFGM returns an FGM attack bounded by the given norm.
func NewFGM(n Norm) *FGM { return &FGM{norm: n} }

// Name implements Attack.
func (a *FGM) Name() string { return fmt.Sprintf("FGM-%s", a.norm) }

// Norm implements Attack.
func (a *FGM) Norm() Norm { return a.norm }

// PerturbBatch implements Attack: one batched gradient call crafts the
// whole batch. FGM draws no randomness, so rngs is unused.
func (a *FGM) PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, _ []*rand.Rand) *tensor.T {
	g := mustGrad(m, a.Name())
	if eps == 0 {
		return xs.Clone()
	}
	_, grad := g.LossGradBatch(xs, labels)
	adv := xs.Clone()
	if a.norm == Linf {
		grad.Sign()
		adv.AddScaled(float32(eps), grad)
	} else {
		stepL2Rows(adv, grad, eps)
	}
	adv.Clamp(0, 1)
	return adv
}

// BIM is the Basic Iterative Method (iterative FGSM): repeated small
// gradient steps, each followed by projection into the eps-ball and the
// valid pixel box. Defaults follow Foolbox: 10 iterations with a
// relative step size of 0.2.
type BIM struct {
	norm    Norm
	Steps   int
	RelStep float64
	// randomStart enables the PGD variant.
	randomStart bool
	name        string
}

// NewBIM returns a BIM attack bounded by the given norm.
func NewBIM(n Norm) *BIM {
	return &BIM{norm: n, Steps: 10, RelStep: 0.2, name: "BIM"}
}

// NewPGD returns Projected Gradient Descent: BIM with a random start
// inside the eps-ball. Foolbox defaults: 40 iterations, relative step
// 0.025; we keep 20/0.05 for wall-clock parity with the LUT victims —
// at these budgets the attack is already saturated.
func NewPGD(n Norm) *BIM {
	return &BIM{norm: n, Steps: 20, RelStep: 0.05, randomStart: true, name: "PGD"}
}

// Name implements Attack.
func (a *BIM) Name() string { return fmt.Sprintf("%s-%s", a.name, a.norm) }

// ConfigKey implements Configurable: Steps and RelStep are exported
// tuning knobs, so crafted-example caches must distinguish them.
func (a *BIM) ConfigKey() string {
	return fmt.Sprintf("%s[steps=%d,rel=%g]", a.Name(), a.Steps, a.RelStep)
}

// Norm implements Attack.
func (a *BIM) Norm() Norm { return a.norm }

// RandomStart reports whether this instance is the PGD variant —
// i.e. whether re-running it draws fresh randomness, which is what
// makes wrapping it in Restart meaningful.
func (a *BIM) RandomStart() bool { return a.randomStart }

// randomInitBall applies a random start inside the eps-ball to one
// sample in place: uniform in the eps-box for linf, a gaussian
// direction with uniform radius for l2, then projection and box
// clamping. PGD and EOT share it, with an identical draw order, so
// their iterates start from the same distribution.
func randomInitBall(norm Norm, adv, x *tensor.T, eps float64, rng *rand.Rand) {
	if norm == Linf {
		for i := range adv.Data {
			adv.Data[i] += float32((rng.Float64()*2 - 1) * eps)
		}
	} else {
		d := gaussianDir(x.Shape, rng)
		stepL2(adv, d, rng.Float64()*eps)
	}
	project(norm, adv, x, eps)
	adv.Clamp(0, 1)
}

// PerturbBatch implements Attack: every gradient step is one batched
// LossGradBatch call over the whole batch. Row r draws its random
// start (PGD) from rngs[r] alone.
func (a *BIM) PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	g := mustGrad(m, a.Name())
	if eps == 0 {
		return xs.Clone()
	}
	adv := xs.Clone()
	if a.randomStart {
		for r := 0; r < adv.Rows(); r++ {
			randomInitBall(a.norm, adv.Row(r), xs.Row(r), eps, rngs[r])
		}
	}
	alpha := a.RelStep * eps
	for s := 0; s < a.Steps; s++ {
		_, grad := g.LossGradBatch(adv, labels)
		if a.norm == Linf {
			grad.Sign()
			adv.AddScaled(float32(alpha), grad)
		} else {
			stepL2Rows(adv, grad, alpha)
		}
		projectRows(a.norm, adv, xs, eps)
		adv.Clamp(0, 1)
	}
	return adv
}

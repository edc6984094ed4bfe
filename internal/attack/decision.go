package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// CR is the Contrast Reduction attack (Foolbox
// L2ContrastReductionAttack): it blends the image toward the mid-gray
// target 0.5, moving along that fixed direction until the l2 budget is
// spent (or the image is fully gray). It needs no model queries.
//
// For AxDNNs this attack is the interesting one: pulling pixels toward
// mid-range codes concentrates multiplier operands in the region where
// input-dependent approximation error peaks (see internal/axmult's
// Mitchell design), which is how the paper's Fig. 6a collapse arises.
type CR struct{}

// NewCR returns the contrast-reduction attack.
func NewCR() *CR { return &CR{} }

// Name implements Attack.
func (a *CR) Name() string { return "CR-l2" }

// Norm implements Attack.
func (a *CR) Norm() Norm { return L2 }

// PerturbBatch implements Attack row by row; CR draws no randomness
// and queries no model, so m and rngs are unused.
func (a *CR) PerturbBatch(_ Model, xs *tensor.T, _ []int, eps float64, _ []*rand.Rand) *tensor.T {
	out := xs.Clone()
	for r := 0; r < out.Rows(); r++ {
		adv := out.Row(r)
		d := tensor.New(adv.Shape...)
		for i, v := range adv.Data {
			d.Data[i] = 0.5 - v
		}
		n := d.L2Norm()
		if n == 0 {
			continue
		}
		t := eps / n
		if t > 1 {
			t = 1 // fully gray; cannot move further along this direction
		}
		adv.AddScaled(float32(t), d)
		adv.Clamp(0, 1)
	}
	return out
}

// noiseAttack implements the repeated additive noise family: sample a
// noise direction, scale it to the eps budget, and keep the first
// sample that fools the source model (Foolbox's Repeated* attacks).
// If no sample fools the model the last one is returned — the budget
// is spent either way, matching the robustness protocol.
type noiseAttack struct {
	name    string
	norm    Norm
	repeats int
	sample  func(shape []int, rng *rand.Rand) *tensor.T
}

// NewRAG returns the Repeated Additive Gaussian noise attack (l2).
func NewRAG() Attack {
	return &noiseAttack{name: "RAG-l2", norm: L2, repeats: 20, sample: gaussianDir}
}

// NewRAU returns the Repeated Additive Uniform noise attack for the
// given norm (the paper uses both the l2 and linf variants).
func NewRAU(n Norm) Attack {
	return &noiseAttack{name: fmt.Sprintf("RAU-%s", n), norm: n, repeats: 20, sample: uniformDir}
}

// Name implements Attack.
func (a *noiseAttack) Name() string { return a.name }

// Norm implements Attack.
func (a *noiseAttack) Norm() Norm { return a.norm }

// PerturbBatch implements Attack. The repeats run in lock-step over
// the rows not yet fooled: each open row draws its next direction from
// its own rngs[r] (redrawing zero directions), and one LogitsBatch call
// scores every open row's candidate. A fooled row keeps that
// candidate; a row no repeat fools keeps the last one. The last
// repeat's candidates are kept whatever they score, so they are not
// scored.
func (a *noiseAttack) PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	out := xs.Clone()
	if eps == 0 {
		return out
	}
	shape := xs.Shape[1:]
	open := make([]int, xs.Rows())
	for r := range open {
		open[r] = r
	}
	for k := 0; k < a.repeats && len(open) > 0; k++ {
		cand := tensor.GatherRows(xs, open)
		for i, r := range open {
			d := a.sample(shape, rngs[r])
			// A zero direction cannot be scaled to the budget and would
			// silently return the input unperturbed; resample so eps>0
			// always spends the budget.
			for d.LinfNorm() == 0 {
				d = a.sample(shape, rngs[r])
			}
			adv := cand.Row(i)
			if a.norm == Linf {
				// Scale the direction to have linf norm exactly eps.
				adv.AddScaled(float32(eps/d.LinfNorm()), d)
			} else {
				stepL2(adv, d, eps)
			}
			adv.Clamp(0, 1)
		}
		tensor.ScatterRows(out, cand, open)
		if k == a.repeats-1 {
			break
		}
		still := open[:0]
		for i, p := range tensor.ArgMaxRows(m.LogitsBatch(cand)) {
			if p == labels[open[i]] {
				still = append(still, open[i])
			}
		}
		open = still
	}
	return out
}

package attack

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// SetAttack is a set-level attack: it crafts a single image-agnostic
// perturbation over the whole sample set at once, so its PerturbSet
// cannot be chunked per row the way PerturbBatch can. The
// harness in internal/core crafts one perturbation per (attack, eps,
// seed) cell — a single PerturbSet call over the full set — caches
// it, and replays the perturbed batch on every victim.
type SetAttack interface {
	Attack
	// PerturbSet returns the [N, sampleShape...] batch obtained by
	// applying one universal perturbation, crafted over the whole set,
	// to every row. Implementations must not modify xs and must
	// consume rng deterministically: same (set, eps, rng seed), same
	// crafted batch, bit for bit. Crafting observes ctx at chunk
	// granularity; once ctx is cancelled the (partial) result is
	// meaningless and callers must discard it.
	PerturbSet(ctx context.Context, m Model, xs *tensor.T, labels []int, eps float64, rng *rand.Rand) *tensor.T
}

// UAP crafts a universal adversarial perturbation in the style of
// universal adversarial training (Shafahi et al. 2020): one delta,
// shared by every sample, maximising the set's mean loss by iterated
// batched gradient ascent — random init in the eps-ball, then per
// pass aggregate the loss gradient over the whole set, step along its
// sign (linf) or L2-normalised direction (l2), and project delta back
// into the eps-ball. Defaults: 10 passes, step 0.2*eps.
//
// UAP is the paper-title question made literal: is approximation
// defensive against *image-agnostic* perturbations, not just
// per-sample ones?
type UAP struct {
	norm Norm
	// Iters is the number of aggregated-gradient passes over the set.
	Iters int
	// RelStep is the per-pass step size relative to eps.
	RelStep float64
}

// NewUAP returns a UAP crafter bounded by the given norm.
func NewUAP(n Norm) *UAP {
	return &UAP{norm: n, Iters: 10, RelStep: 0.2}
}

// Name implements Attack.
func (a *UAP) Name() string { return fmt.Sprintf("UAP-%s", a.norm) }

// Norm implements Attack.
func (a *UAP) Norm() Norm { return a.norm }

// ConfigKey implements Configurable: Iters and RelStep are exported
// tuning knobs, so crafted-example caches must distinguish them.
func (a *UAP) ConfigKey() string {
	return fmt.Sprintf("%s[iters=%d,rel=%g]", a.Name(), a.Iters, a.RelStep)
}

// uapChunk bounds the batched-gradient workspace during crafting; the
// aggregation is sequential over chunks, so the crafted delta is
// independent of the chunk size's relation to the set size.
const uapChunk = 32

// Craft returns the universal perturbation delta (sample-shaped, not
// batch-shaped) for the set. PerturbSet is Craft followed by applying
// delta to every row; Craft is exported so callers can inspect or
// persist the perturbation itself. Cancelling ctx stops crafting at
// the next chunk boundary, returning a partial delta the caller must
// discard.
func (a *UAP) Craft(ctx context.Context, m Model, xs *tensor.T, labels []int, eps float64, rng *rand.Rand) *tensor.T {
	g := mustGrad(m, a.Name())
	shape := xs.Shape[1:]
	delta := tensor.New(shape...)
	if eps == 0 {
		return delta
	}
	zero := tensor.New(shape...)
	// Random init inside the eps-ball, mirroring PGD's random start.
	if a.norm == Linf {
		for i := range delta.Data {
			delta.Data[i] = float32((rng.Float64()*2 - 1) * eps)
		}
	} else {
		stepL2(delta, gaussianDir(shape, rng), rng.Float64()*eps)
	}
	project(a.norm, delta, zero, eps)

	n := xs.Rows()
	alpha := a.RelStep * eps
	for it := 0; it < a.Iters; it++ {
		mean := tensor.New(shape...)
		for lo := 0; lo < n; lo += uapChunk {
			if ctx.Err() != nil {
				return delta
			}
			hi := lo + uapChunk
			if hi > n {
				hi = n
			}
			batch := xs.RowView(lo, hi).Clone()
			for r := 0; r < batch.Rows(); r++ {
				batch.Row(r).AddScaled(1, delta)
			}
			batch.Clamp(0, 1)
			_, grad := g.LossGradBatch(batch, labels[lo:hi])
			for r := 0; r < grad.Rows(); r++ {
				mean.AddScaled(1, grad.Row(r))
			}
		}
		mean.Scale(1 / float32(n))
		if a.norm == Linf {
			mean.Sign()
			delta.AddScaled(float32(alpha), mean)
		} else {
			stepL2(delta, mean, alpha)
		}
		project(a.norm, delta, zero, eps)
	}
	return delta
}

// PerturbSet implements SetAttack: Craft the universal delta, add it
// to every row, and clamp to the pixel box.
func (a *UAP) PerturbSet(ctx context.Context, m Model, xs *tensor.T, labels []int, eps float64, rng *rand.Rand) *tensor.T {
	if eps == 0 {
		return xs.Clone()
	}
	delta := a.Craft(ctx, m, xs, labels, eps, rng)
	out := xs.Clone()
	for r := 0; r < out.Rows(); r++ {
		out.Row(r).AddScaled(1, delta)
	}
	out.Clamp(0, 1)
	return out
}

// PerturbBatch implements Attack for callers that chunk a set into
// rows: each row is its own one-sample set, crafted on rngs[r]. The
// harnesses in internal/core and internal/defense dispatch SetAttack
// first, so a sweep crafts one perturbation over the whole set.
func (a *UAP) PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	out := xs.Clone()
	if eps == 0 {
		return out
	}
	for r := 0; r < xs.Rows(); r++ {
		row := xs.RowView(r, r+1)
		adv := a.PerturbSet(context.Background(), m, row, labels[r:r+1], eps, rngs[r])
		copy(out.Row(r).Data, adv.Data)
	}
	return out
}

package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Sampler is a randomized victim — a defense that serves each query
// from a randomly drawn configuration (internal/defense.Ensemble draws
// an approximate-multiplier variant per query, MTDeep-style). The EOT
// attack evaluates such defenses honestly by averaging over draws
// instead of attacking any one fixed configuration.
type Sampler interface {
	Model
	// SampleModel draws one configuration from the defense's
	// distribution, consuming rng deterministically.
	SampleModel(rng *rand.Rand) Model
	// SamplerKey identifies the distribution — pool, quantization,
	// source weights, seed — for crafted-example cache keys: two
	// samplers with different pools must never share EOT entries.
	SamplerKey() string
}

// LogitGradModel is a model that can backpropagate an externally
// supplied logits gradient to its input — the BPDA surrogate hook EOT
// needs, since the sampled configurations (quantized AxDNN variants)
// are not differentiable. internal/nn networks implement it.
type LogitGradModel interface {
	Model
	GradFromLogitsBatch(xs, dlogits *tensor.T) *tensor.T
}

// EOT is the adaptive attack on randomized-approximation defenses:
// PGD over the expectation of the loss under the defense's
// configuration distribution (Expectation over Transformation,
// Athalye et al. 2018). Each step scores the current iterate on
// Samples configurations drawn from the target, averages the
// softmax-CE logit gradients, and backpropagates the average through
// the accurate float source network (BPDA — the quantized
// configurations themselves have no gradients). Crafting against the
// mean gradient rather than the single float surrogate is what makes
// the randomized ensemble's measured robustness honest instead of
// gradient-obfuscated.
type EOT struct {
	target Sampler
	norm   Norm
	// Steps / RelStep follow PGD's in-tree defaults (20, 0.05), so the
	// EOT grid is comparable step-for-step with the plain PGD grid.
	Steps   int
	RelStep float64
	// Samples is the number of configuration draws averaged per step.
	Samples int
}

// NewEOT returns an EOT attack on the given randomized defense,
// bounded by the given norm, averaging samples draws per step. Like
// NewRestart it is configuration, not a registry entry: it exists only
// relative to a concrete defense instance.
func NewEOT(target Sampler, n Norm, samples int) *EOT {
	if samples < 1 {
		samples = 1
	}
	return &EOT{target: target, norm: n, Steps: 20, RelStep: 0.05, Samples: samples}
}

// Name implements Attack. The name deliberately reads as an adaptive
// PGD variant — that is the comparison a defense suite draws.
func (a *EOT) Name() string { return fmt.Sprintf("EOT-PGD-%s", a.norm) }

// Norm implements Attack.
func (a *EOT) Norm() Norm { return a.norm }

// ConfigKey implements Configurable: the step schedule, sample count,
// and the target distribution all change what gets crafted.
func (a *EOT) ConfigKey() string {
	return fmt.Sprintf("%s[steps=%d,rel=%g,samples=%d,target=%s]",
		a.Name(), a.Steps, a.RelStep, a.Samples, a.target.SamplerKey())
}

// PerturbBatch implements Attack. Row r consumes rngs[r] only —
// random start first, then Samples configuration draws per step — so
// the crafted batch is independent of chunking, bit for bit.
func (a *EOT) PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	sg := mustLogitGrad(m, a.Name())
	if eps == 0 {
		return xs.Clone()
	}
	adv := xs.Clone()
	for r := 0; r < adv.Rows(); r++ {
		randomInitBall(a.norm, adv.Row(r), xs.Row(r), eps, rngs[r])
	}
	alpha := a.RelStep * eps
	for s := 0; s < a.Steps; s++ {
		dl := a.meanLogitGrad(adv, labels, rngs)
		grad := sg.GradFromLogitsBatch(adv, dl)
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

// meanLogitGrad returns the [N, classes] softmax-CE logit gradient
// averaged over Samples configuration draws per row. Rows drawing the
// same configuration within one sampling round are scored with a
// single LogitsBatch call. Backpropagation is linear in the logits
// gradient, so averaging before the (expensive) backward pass is
// exact: mean_k backward(dl_k) == backward(mean_k dl_k).
func (a *EOT) meanLogitGrad(adv *tensor.T, labels []int, rngs []*rand.Rand) *tensor.T {
	n := adv.Rows()
	var dl *tensor.T
	for k := 0; k < a.Samples; k++ {
		groups := make(map[Model][]int)
		for r := 0; r < n; r++ {
			cfg := a.target.SampleModel(rngs[r])
			groups[cfg] = append(groups[cfg], r)
		}
		// Map order is irrelevant: each row is touched by exactly one
		// group per round, so the accumulation order into any dl row is
		// fixed (round k strictly after round k-1).
		for cfg, rows := range groups {
			logits := cfg.LogitsBatch(tensor.GatherRows(adv, rows))
			classes := logits.RowLen()
			if dl == nil {
				dl = tensor.New(n, classes)
			}
			for i, r := range rows {
				_, g := tensor.SoftmaxCE(logits.Row(i).Data, labels[r])
				row := dl.Data[r*classes : (r+1)*classes]
				for j, v := range g {
					row[j] += v
				}
			}
		}
	}
	dl.Scale(1 / float32(a.Samples))
	return dl
}

// mustLogitGrad asserts the model supports surrogate backpropagation.
func mustLogitGrad(m Model, name string) LogitGradModel {
	g, ok := m.(LogitGradModel)
	if !ok {
		panic("attack: " + name + " requires a logit-gradient model (accurate float DNN)")
	}
	return g
}

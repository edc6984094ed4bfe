// Package attack implements the paper's ten adversarial attacks (Table I)
// with Foolbox-compatible semantics:
//
//	gradient-based: FGM (l2, linf), BIM (l2, linf), PGD (l2, linf)
//	decision-based: CR (l2), RAG (l2), RAU (l2, linf)
//
// plus a universal/targeted extension family beyond Table I:
//
//	momentum: MIFGSM (l2, linf) — momentum-iterative FGSM
//	set-level: UAP (l2, linf) — one image-agnostic perturbation per set
//	wrapper: Restart — random restarts around PGD (see NewRestart)
//
// Attacks perturb a correctly labelled input within a perturbation
// budget eps measured in the attack's norm, clamping to the valid pixel
// box [0,1]. Per the paper's threat model, attacks are always run
// against the *accurate* model (the adversary does not know the victim's
// inexactness); the perturbed inputs are then replayed on AxDNN victims
// by the harness in internal/core.
//
// Every attack crafts whole batches (Attack.PerturbBatch) and every
// model scores whole batches (Model.LogitsBatch): gradient attacks take
// one batched gradient per step, the noise attacks score each repeat
// over the rows not yet fooled in one call, and CR needs no model.
// Row r depends only on sample r and its own rng stream, so a batch
// crafts the same bytes whatever chunks it is split into.
package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Model is a classifier that scores whole batches: LogitsBatch takes
// [N, sampleShape...] and returns [N, classes]. Row r must not depend on
// the other rows, so a batch scores the same bytes whatever chunks it
// is split into. The float networks (internal/nn), the AxDNNs
// (internal/axnn) and the randomized ensemble (internal/defense) all
// implement it.
type Model interface {
	LogitsBatch(xs *tensor.T) *tensor.T
}

// BatchModel is the former name of Model.
//
// Deprecated: use Model. The alias stays only until the suite
// benchmark's sources move to Model.
type BatchModel = Model

// GradModel additionally exposes the batched loss gradient w.r.t. the
// input, as required by the gradient-based attacks: LossGradBatch takes
// a batch and one label per row and returns the per-row losses and the
// [N, sampleShape...] input gradient. internal/nn networks implement
// it.
type GradModel interface {
	Model
	LossGradBatch(xs *tensor.T, labels []int) ([]float32, *tensor.T)
}

// Norm identifies the distance metric bounding a perturbation.
type Norm int

// Supported perturbation norms.
const (
	L2 Norm = iota
	Linf
)

// String returns the paper's notation for the norm.
func (n Norm) String() string {
	if n == Linf {
		return "linf"
	}
	return "l2"
}

// Attack crafts adversarial examples for a batch xs [N, sampleShape...]
// with one label per row, within budget eps. rngs holds one independent
// deterministic stream per row, and row r consumes only rngs[r], so the
// crafted rows do not depend on how a set is chunked into batches.
// Implementations must not modify xs and must be safe for concurrent
// use with distinct rng instances. Gradient-based attacks require m to
// be a GradModel and panic otherwise (a configuration bug, not a
// runtime condition).
type Attack interface {
	Name() string
	Norm() Norm
	PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T
}

// mustGrad asserts the model supports gradients.
func mustGrad(m Model, name string) GradModel {
	g, ok := m.(GradModel)
	if !ok {
		panic("attack: " + name + " requires a gradient model (accurate float DNN)")
	}
	return g
}

// stepL2 moves x along the L2-normalised direction d by length alpha.
func stepL2(x, d *tensor.T, alpha float64) {
	n := d.L2Norm()
	if n == 0 {
		return
	}
	x.AddScaled(float32(alpha/n), d)
}

// gaussianDir fills a fresh tensor with standard normal noise.
func gaussianDir(shape []int, rng *rand.Rand) *tensor.T {
	d := tensor.New(shape...)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

// uniformDir fills a fresh tensor with uniform noise in [-1, 1].
func uniformDir(shape []int, rng *rand.Rand) *tensor.T {
	d := tensor.New(shape...)
	for i := range d.Data {
		d.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return d
}

// stepL2Rows applies stepL2 row by row with a shared step length.
func stepL2Rows(x, d *tensor.T, alpha float64) {
	for r := 0; r < x.Rows(); r++ {
		stepL2(x.Row(r), d.Row(r), alpha)
	}
}

// project applies the norm-appropriate projection of adv into the
// eps-ball around x.
func project(norm Norm, adv, x *tensor.T, eps float64) {
	if norm == Linf {
		tensor.ProjectLinf(adv, x, eps)
	} else {
		tensor.ProjectL2(adv, x, eps)
	}
}

// projectRows applies the norm-appropriate per-row projection of adv
// into the eps-ball around the matching row of x.
func projectRows(norm Norm, adv, x *tensor.T, eps float64) {
	if norm == Linf {
		tensor.ProjectLinfRows(adv, x, eps)
	} else {
		tensor.ProjectL2Rows(adv, x, eps)
	}
}

// TableI returns the paper's ten-attack suite in Table I order.
func TableI() []Attack {
	return []Attack{
		NewFGM(L2), NewFGM(Linf),
		NewBIM(L2), NewBIM(Linf),
		NewPGD(L2), NewPGD(Linf),
		NewCR(),
		NewRAG(),
		NewRAU(L2), NewRAU(Linf),
	}
}

// All returns every registered attack: the Table I suite followed by
// the universal/momentum extension family (MI-FGSM and the UAP set
// attack). The PGD restart wrapper is configuration (see NewRestart
// and experiment.AttackParams), not a registry entry.
func All() []Attack {
	return append(TableI(),
		NewMIFGSM(L2), NewMIFGSM(Linf),
		NewUAP(L2), NewUAP(Linf),
	)
}

// Names lists the attack names of the full suite, Table I first —
// the valid values for spec files and -attack flags.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name()
	}
	return names
}

// Find returns the attack whose Name matches, or the canonical
// unknown-attack error naming the valid set. Every surface that
// resolves attack names — flag parsing, spec validation, defense
// configuration — reports the same message through it.
func Find(name string) (Attack, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown attack %q (have: %v)", name, Names())
}

// ByName returns the attack whose Name matches, or nil. Callers that
// need the error message should use Find.
func ByName(name string) Attack {
	a, _ := Find(name)
	return a
}

// Configurable is implemented by attacks with exported tunable
// parameters: ConfigKey must fold every parameter that affects
// crafting into the returned string. Attacks fully determined by
// their constructor (CR, RAG, RAU — no exported knobs) don't need it;
// their Name suffices.
type Configurable interface {
	ConfigKey() string
}

// ConfigKey identifies an attack together with every tunable
// parameter that affects crafting. Caches of crafted examples must
// key on it rather than Name(): two BIM instances named "BIM-linf"
// with different step counts craft different examples.
func ConfigKey(a Attack) string {
	if c, ok := a.(Configurable); ok {
		return c.ConfigKey()
	}
	return a.Name()
}

// Package nn is a minimal, complete float32 neural-network stack:
// layers with forward and backward passes, cross-entropy loss, and
// input-gradient computation. It plays two roles in the reproduction:
// it trains the accurate DNNs (the paper trains with exact multipliers)
// and it serves as the adversary's white-box model — every gradient
// attack differentiates through this stack.
//
// Layers are stateless and batch-first: inputs are either a single
// sample ([C,H,W] or [F]) or a batch with a leading sample dimension
// ([N,C,H,W] or [N,F]), and all per-call scratch lives in an explicit
// State owned by the caller. Network pools those States internally, so
// concurrent Forward / Logits / LossGrad calls on one shared Network
// are safe without cloning. The only remaining use of Network.Clone is
// data-parallel training, where each worker needs private weight
// gradient buffers.
package nn

import "repro/internal/tensor"

// State carries the scratch one layer needs between a Forward call and
// the matching Backward, plus reusable buffers that amortise
// allocations across calls. A zero State is ready for use; Networks
// recycle States through an internal pool.
type State struct {
	// accumGrads routes weight/bias gradients into the layer's shared
	// G buffers during Backward. It is off for attack/inference passes
	// (making them safe on a shared network) and on for training.
	accumGrads bool

	x     *tensor.T // layer input (conv, dense, pool)
	cols  []float32 // conv: tap-major columns for the whole batch; input-gradient columns in Backward
	dyt   []float32 // conv backward: dy spanned to [OutC][pixels] for outputs under minLanePixels
	span  []float32 // conv: output rows spanning the batch, before the scatter to [N][rows][P]
	mask  []bool    // relu activation mask
	shape []int     // flatten input shape
}

// grow returns (*buf)[:n], reallocating *buf when its capacity is
// short. Contents are unspecified; callers overwrite every element.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// release drops references to pass inputs so pooled States do not pin
// batch tensors, while keeping the flat scratch buffers for reuse.
func (st *State) release() { st.x = nil }

// Layer is a differentiable network stage. Implementations must keep
// all mutable per-call data in st so that a single Layer value can be
// used concurrently with distinct States.
type Layer interface {
	// Forward computes the layer output for a single sample or a batch,
	// caching whatever Backward needs in st. The returned tensor is
	// freshly allocated (or a view of one) and owned by the caller.
	Forward(x *tensor.T, st *State) *tensor.T
	// Backward consumes the gradient w.r.t. the layer output and
	// returns the gradient w.r.t. the layer input. Weight gradients are
	// accumulated into the layer's gradient buffers only when st was
	// prepared for training (see Network.AccumGrad).
	Backward(dy *tensor.T, st *State) *tensor.T
}

// Param couples a weight slice with its gradient buffer.
type Param struct {
	Name string
	W    []float32
	G    []float32
}

// ParamLayer is a Layer with trainable parameters.
type ParamLayer interface {
	Layer
	Params() []Param
	// CloneForTraining returns a copy sharing weight storage but owning
	// fresh gradient buffers, so data-parallel trainers can accumulate
	// per-worker gradients without races.
	CloneForTraining() Layer
	// CloneDetached returns a copy owning private weight AND gradient
	// storage initialised from the receiver — the basis of derived
	// models (adversarial fine-tuning) that retrain without mutating
	// their base.
	CloneDetached() Layer
}

// batchDims splits a layer input into (n, sampleShape) following the
// batch convention: rank sampleRank+1 tensors carry a leading batch
// dimension.
func batchDims(x *tensor.T, sampleRank int) (n int, sample []int) {
	if len(x.Shape) == sampleRank+1 {
		return x.Shape[0], x.Shape[1:]
	}
	return 1, x.Shape
}

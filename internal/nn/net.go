package nn

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers ending in logits (no softmax
// layer; the loss applies softmax internally).
//
// Every entry point takes a batch [N, sampleShape...]. Networks are
// stateless with respect to inference: LogitsBatch, LossGradBatch and
// GradFromLogitsBatch keep all scratch in pooled per-call workspaces
// and never touch the shared gradient buffers, so one Network value
// serves any number of goroutines concurrently.
// Training uses Clone (private gradient buffers) plus AccumGrad.
type Network struct {
	Name   string
	Layers []Layer

	// passes recycles per-call workspaces (one State per layer).
	passes sync.Pool
}

// pass is one forward/backward workspace: a State slot per layer.
type pass struct {
	states []State
}

func (n *Network) getPass(accumGrads bool) *pass {
	p, _ := n.passes.Get().(*pass)
	if p == nil || len(p.states) != len(n.Layers) {
		p = &pass{states: make([]State, len(n.Layers))}
	}
	for i := range p.states {
		p.states[i].accumGrads = accumGrads
	}
	return p
}

func (n *Network) putPass(p *pass) {
	for i := range p.states {
		p.states[i].release()
	}
	n.passes.Put(p)
}

func (n *Network) forward(x *tensor.T, p *pass) *tensor.T {
	for i, l := range n.Layers {
		x = l.Forward(x, &p.states[i])
	}
	return x
}

func (n *Network) backward(g *tensor.T, p *pass) *tensor.T {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g, &p.states[i])
	}
	return g
}

// LogitsBatch runs the stack on a batch [N, sampleShape...] and
// returns the [N, classes] logits. Rows are independent: row r is the
// same bytes whatever else shares its batch.
func (n *Network) LogitsBatch(xs *tensor.T) *tensor.T {
	p := n.getPass(false)
	y := n.forward(xs, p)
	n.putPass(p)
	return y
}

// ForwardTrace runs the stack on a batch and returns every
// intermediate output (one per layer). Quantization calibration calls
// it on one-sample batches.
func (n *Network) ForwardTrace(xs *tensor.T) []*tensor.T {
	p := n.getPass(false)
	outs := make([]*tensor.T, len(n.Layers))
	for i, l := range n.Layers {
		xs = l.Forward(xs, &p.states[i])
		outs[i] = xs
	}
	n.putPass(p)
	return outs
}

// LossGradBatch computes the softmax cross-entropy losses of a batch
// xs [N, sampleShape...] against labels (length N), and the
// [N, sampleShape...] gradient of each loss w.r.t. its input row. Weight
// gradients are NOT accumulated — the call is read-only on the network
// and safe for concurrent use (gradient attacks hammer this from many
// goroutines). Rows are independent, as in LogitsBatch.
func (n *Network) LossGradBatch(xs *tensor.T, labels []int) ([]float32, *tensor.T) {
	p := n.getPass(false)
	logits := n.forward(xs, p)
	rows, classes := logits.Shape[0], logits.Shape[1]
	losses := make([]float32, rows)
	dlogits := tensor.New(rows, classes)
	for r := 0; r < rows; r++ {
		loss, dl := tensor.SoftmaxCE(logits.Data[r*classes:(r+1)*classes], labels[r])
		losses[r] = loss
		copy(dlogits.Data[r*classes:(r+1)*classes], dl)
	}
	g := n.backward(dlogits, p)
	n.putPass(p)
	return losses, g
}

// GradFromLogitsBatch backpropagates an externally supplied logits
// gradient: xs is [N, sampleShape...], dlogits is [N, classes], and
// the result is the [N, sampleShape...] gradient of
// sum_r <dlogits[r], logits(xs)[r]> w.r.t. xs. It is the BPDA
// surrogate-gradient hook of the adaptive EOT attack: the loss (and
// hence dlogits) comes from a non-differentiable victim — a quantized
// AxDNN configuration — while the backward pass runs through this
// float network. Like LossGradBatch it never touches the shared
// weight-gradient buffers, so concurrent calls on one Network are
// safe.
func (n *Network) GradFromLogitsBatch(xs, dlogits *tensor.T) *tensor.T {
	p := n.getPass(false)
	logits := n.forward(xs, p)
	if logits.Len() != dlogits.Len() {
		panic("nn: GradFromLogitsBatch dlogits shape does not match the network's logits")
	}
	g := n.backward(dlogits, p)
	n.putPass(p)
	return g
}

// AccumGrad runs a training pass for one sample (x, label), as a
// one-sample batch: forward, loss, and backward with weight gradients
// accumulated into the network's G buffers. Unlike LossGradBatch it
// mutates shared state, so concurrent training workers must call it on
// private Clones.
func (n *Network) AccumGrad(x *tensor.T, label int) float32 {
	p := n.getPass(true)
	logits := n.forward(x.Unsqueeze(), p)
	loss, dlogits := tensor.SoftmaxCE(logits.Data, label)
	n.backward(tensor.FromSlice(dlogits, logits.Shape...), p)
	n.putPass(p)
	return loss
}

// WeightsFingerprint folds every parameter into a cheap FNV-style
// hash. Caches keyed by network identity combine it with the pointer
// so a network retrained in place never matches its pre-training
// entries.
func (n *Network) WeightsFingerprint() uint64 {
	const prime = 1099511628211
	var h uint64 = 14695981039346656037
	for _, p := range n.Params() {
		for _, w := range p.W {
			h ^= uint64(math.Float32bits(w))
			h *= prime
		}
	}
	return h
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			ps = append(ps, pl.Params()...)
		}
	}
	return ps
}

// ZeroGrads clears all gradient buffers.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// Clone returns a network sharing weights with n but owning private
// weight-gradient buffers. It exists for data-parallel training
// (AccumGrad); inference and attacks never need it — the stateless
// forward/backward paths are already concurrency-safe on a shared
// Network.
func (n *Network) Clone() *Network {
	c := &Network{Name: n.Name, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			c.Layers[i] = pl.CloneForTraining()
		} else {
			// Stateless layers are shared as-is.
			c.Layers[i] = l
		}
	}
	return c
}

// DeepClone returns a network with private copies of every parameter
// (and fresh gradient buffers): retraining the clone — adversarial
// fine-tuning a hardened variant — never mutates the base network or
// invalidates caches keyed on its weights fingerprint. Stateless
// layers are shared as in Clone.
func (n *Network) DeepClone() *Network {
	c := &Network{Name: n.Name, Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			c.Layers[i] = pl.CloneDetached()
		} else {
			c.Layers[i] = l
		}
	}
	return c
}

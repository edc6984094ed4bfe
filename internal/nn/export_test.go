package nn

import "repro/internal/tensor"

// Hooks for the external parity tests and benchmark (tiled_test.go),
// which need the reference kernels of ref.go next to networks built by
// the real model builders (package models imports nn, so those tests
// live in package nn_test).

// refConv runs a Conv2D through the reference kernels.
type refConv struct{ *Conv2D }

func (r refConv) Forward(x *tensor.T, st *State) *tensor.T   { return r.refForward(x, st) }
func (r refConv) Backward(dy *tensor.T, st *State) *tensor.T { return r.refBackward(dy, st) }

// RefConv wraps c so Forward and Backward run the reference kernels.
// The wrapper shares c's weights and gradient buffers.
func RefConv(c *Conv2D) Layer { return refConv{c} }

// RefNetwork returns a DeepClone of n (private weights and gradient
// buffers) whose conv layers run the reference kernels.
func RefNetwork(n *Network) *Network {
	c := n.DeepClone()
	for i, l := range c.Layers {
		if conv, ok := l.(*Conv2D); ok {
			c.Layers[i] = refConv{conv}
		}
	}
	return c
}

// TrainingState returns a State whose Backward accumulates weight
// gradients, as Network.AccumGrad prepares it.
func TrainingState() *State { return &State{accumGrads: true} }

// ForceGoTile switches Conv2D to the Go microkernel and returns a func
// that restores the previous choice.
func ForceGoTile() (restore func()) {
	prev := useLanes
	useLanes = false
	return func() { useLanes = prev }
}

// GemmLanes runs the lane GEMM (gemmLanes) on the selected microkernel.
func GemmLanes(c []float32, ldc int, a []float32, aRow, aStep int, b []float32, ldb int, bias []float32, m, k, n int) {
	gemmLanes(c, ldc, a, aRow, aStep, b, ldb, bias, m, k, n)
}

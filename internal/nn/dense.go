package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer over [N,In] batches. It runs as a 1x1 conv over a 1x1 input on the conv layers'
// lane GEMM (gemm_lanes.go): each sample has one output pixel, so the
// batch's samples fill the lanes. Each output reduces its inputs in
// ascending index order from +0, rounding each product before the add,
// then adds the bias.
type Dense struct {
	In, Out int

	W []float32 // [Out][In]
	B []float32

	GW []float32
	GB []float32
}

// NewDense creates a dense layer with He-uniform initialised weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  make([]float32, out*in),
		B:  make([]float32, out),
		GW: make([]float32, out*in),
		GB: make([]float32, out),
	}
	bound := float32(math.Sqrt(6.0 / float64(in)))
	for i := range d.W {
		d.W[i] = (rng.Float32()*2 - 1) * bound
	}
	return d
}

// conv views d as the 1x1 conv it runs as, sharing d's weights and
// gradient buffers.
func (d *Dense) conv() *Conv2D {
	return &Conv2D{InC: d.In, OutC: d.Out, K: 1, Stride: 1, W: d.W, B: d.B, GW: d.GW, GB: d.GB}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.T, st *State) *tensor.T {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense expects [N,%d], got %v", d.In, x.Shape))
	}
	n := x.Shape[0]
	st.x = x
	y := tensor.New(n, d.Out)
	d.conv().forwardLanes(x.Data, y.Data, st, n, 1, 1, 1, d.In)
	return y
}

// Backward implements Layer. The input gradient's columns are already
// dx's [N][In] layout, so nothing is scattered back.
func (d *Dense) Backward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	n := x.Shape[0]
	c := d.conv()
	if st.accumGrads {
		c.weightGrads(dy.Data, st.cols[:n*d.In], st, n, 1, d.In)
	}
	dx := tensor.New(x.Shape...)
	c.inputGradLanes(dy.Data, dx.Data, st, n, 1, d.In)
	return dx
}

// Params implements ParamLayer.
func (d *Dense) Params() []Param {
	return []Param{{Name: "W", W: d.W, G: d.GW}, {Name: "B", W: d.B, G: d.GB}}
}

// CloneForTraining implements ParamLayer.
func (d *Dense) CloneForTraining() Layer {
	return &Dense{
		In: d.In, Out: d.Out, W: d.W, B: d.B,
		GW: make([]float32, len(d.GW)),
		GB: make([]float32, len(d.GB)),
	}
}

// CloneDetached implements ParamLayer: private copies of W/B, fresh
// gradients.
func (d *Dense) CloneDetached() Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		W:  append([]float32(nil), d.W...),
		B:  append([]float32(nil), d.B...),
		GW: make([]float32, len(d.GW)),
		GB: make([]float32, len(d.GB)),
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution (cross-correlation) layer over [C,H,W]
// samples or [N,C,H,W] batches, implemented with im2col and the lane
// GEMM (gemm_lanes.go): the forward pass unrolls the batch into
// tap-major columns with its samples side by side and multiplies W by
// them; the backward pass reuses the columns for weight gradients and
// computes the input gradient W^T dy, scattered back by Col2im.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	W []float32 // [OutC][InC*K*K]
	B []float32 // [OutC]

	GW []float32
	GB []float32
}

// NewConv2D creates a conv layer with He-uniform initialised weights.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:  make([]float32, outC*inC*k*k),
		B:  make([]float32, outC),
		GW: make([]float32, outC*inC*k*k),
		GB: make([]float32, outC),
	}
	bound := float32(math.Sqrt(6.0 / float64(inC*k*k)))
	for i := range c.W {
		c.W[i] = (rng.Float32()*2 - 1) * bound
	}
	return c
}

// OutSize returns the spatial output size for an input of h x w.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.T, st *State) *tensor.T {
	n, sample := batchDims(x, 3)
	if len(sample) != 3 || sample[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [%d,H,W] or [N,%d,H,W], got %v", c.InC, c.InC, x.Shape))
	}
	inH, inW := sample[1], sample[2]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	kk := c.InC * c.K * c.K
	st.x = x

	var y *tensor.T
	if len(x.Shape) == 4 {
		y = tensor.New(n, c.OutC, outH, outW)
	} else {
		y = tensor.New(c.OutC, outH, outW)
	}
	c.forwardLanes(x.Data, y.Data, st, n, inH, inW, p, kk)
	return y
}

// Backward implements Layer. It overwrites the columns Forward left in
// st, so each Forward is followed by at most one Backward.
func (c *Conv2D) Backward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	n, sample := batchDims(x, 3)
	inH, inW := sample[1], sample[2]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	kk := c.InC * c.K * c.K
	cols := st.cols[:n*p*kk]

	if st.accumGrads {
		c.weightGrads(dy.Data, cols, n, p, kk)
	}

	// The columns are dead once the weight gradients are in, so dcols
	// ([N][kk][P], the layout Col2im reads) reuses their buffer.
	dcols := cols
	c.inputGradLanes(dy.Data, dcols, st, n, p, kk)

	var dx *tensor.T
	if len(x.Shape) == 4 {
		dx = tensor.New(n, c.InC, inH, inW)
	} else {
		dx = tensor.New(c.InC, inH, inW)
	}
	inStride := c.InC * inH * inW
	for s := 0; s < n; s++ {
		Col2im(dcols[s*kk*p:(s+1)*kk*p], c.InC, inH, inW, c.K, c.Stride, c.Pad, dx.Data[s*inStride:(s+1)*inStride])
	}
	return dx
}

// weightGrads accumulates the weight and bias gradients from dy and
// the tap-major columns Forward left. Each weight's sum over a sample's
// pixels runs in ascending pixel order, then adds into GW.
func (c *Conv2D) weightGrads(dy, cols []float32, n, p, kk int) {
	for s := 0; s < n; s++ {
		dyd := dy[s*c.OutC*p : (s+1)*c.OutC*p]
		for oc := 0; oc < c.OutC; oc++ {
			d := dyd[oc*p : (oc+1)*p]
			gw := c.GW[oc*kk : (oc+1)*kk]
			for q := range gw {
				gw[q] += dot1x1(d, cols[q*n*p+s*p:q*n*p+(s+1)*p])
			}
			var sb float32
			for _, v := range d {
				sb += v
			}
			c.GB[oc] += sb
		}
	}
}

// Params implements ParamLayer.
func (c *Conv2D) Params() []Param {
	return []Param{{Name: "W", W: c.W, G: c.GW}, {Name: "B", W: c.B, G: c.GB}}
}

// CloneForTraining implements ParamLayer: shares W/B, fresh gradients.
func (c *Conv2D) CloneForTraining() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: c.W, B: c.B,
		GW: make([]float32, len(c.GW)),
		GB: make([]float32, len(c.GB)),
	}
}

// CloneDetached implements ParamLayer: private copies of W/B, fresh
// gradients.
func (c *Conv2D) CloneDetached() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W:  append([]float32(nil), c.W...),
		B:  append([]float32(nil), c.B...),
		GW: make([]float32, len(c.GW)),
		GB: make([]float32, len(c.GB)),
	}
}

// Im2col unrolls conv receptive fields into columns:
// cols[(ci*K*K + ki*K + kj)*P + p] = x[ci, i, j] for output pixel p.
// Out-of-bounds (padding) positions contribute zero.
func Im2col(x []float32, inC, h, w, k, stride, pad int, cols []float32) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	p := outH * outW
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := ((ci*k+ki)*k + kj) * p
				idx := 0
				for oi := 0; oi < outH; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						for oj := 0; oj < outW; oj++ {
							cols[row+idx] = 0
							idx++
						}
						continue
					}
					rowBase := base + ii*w
					for oj := 0; oj < outW; oj++ {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							cols[row+idx] = 0
						} else {
							cols[row+idx] = x[rowBase+jj]
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2im scatters column gradients back to the input layout, summing
// overlapping contributions. dst must be zeroed by the caller (a fresh
// tensor.New suffices). Each dst element receives its contributions in
// ascending tap order (ki, kj), one per tap.
func Col2im(cols []float32, inC, h, w, k, stride, pad int, dst []float32) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	p := outH * outW
	for ci := 0; ci < inC; ci++ {
		plane := dst[ci*h*w : (ci+1)*h*w]
		for ki := 0; ki < k; ki++ {
			oi0, oi1 := inBounds(ki, pad, stride, h, outH)
			for kj := 0; kj < k; kj++ {
				q := (ci*k+ki)*k + kj
				col := cols[q*p : (q+1)*p]
				oj0, oj1 := inBounds(kj, pad, stride, w, outW)
				if oj0 == oj1 {
					continue
				}
				j0 := oj0*stride + kj - pad
				for oi := oi0; oi < oi1; oi++ {
					src := col[oi*outW+oj0 : oi*outW+oj1]
					row := plane[(oi*stride+ki-pad)*w : (oi*stride+ki-pad+1)*w]
					if stride == 1 {
						d := row[j0 : j0+len(src)]
						for t, v := range src {
							d[t] += v
						}
						continue
					}
					for t, v := range src {
						row[j0+t*stride] += v
					}
				}
			}
		}
	}
}

// inBounds returns the output positions [lo, hi) of a conv axis whose
// input coordinate o*stride+off-pad lies in [0, n), for outN outputs.
func inBounds(off, pad, stride, n, outN int) (lo, hi int) {
	if d := pad - off; d > 0 {
		lo = (d + stride - 1) / stride
	}
	hi = outN
	if m := n - 1 + pad - off; m < 0 {
		hi = 0
	} else if m/stride+1 < hi {
		hi = m/stride + 1
	}
	return min(lo, hi), hi
}

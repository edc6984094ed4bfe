package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// AvgPool2D averages non-overlapping K x K windows (stride defaults to
// K) over [C,H,W] samples or [N,C,H,W] batches. LeNet-5 and the
// paper's AlexNet both use average pooling.
type AvgPool2D struct {
	K, Stride int
}

// NewAvgPool2D creates an average-pooling layer; stride == 0 means
// stride = k.
func NewAvgPool2D(k, stride int) *AvgPool2D {
	if stride == 0 {
		stride = k
	}
	return &AvgPool2D{K: k, Stride: stride}
}

// Forward implements Layer.
func (p *AvgPool2D) Forward(x *tensor.T, st *State) *tensor.T {
	n, sample := batchDims(x, 3)
	if len(sample) != 3 {
		panic(fmt.Sprintf("nn: AvgPool2D expects [C,H,W] or [N,C,H,W], got %v", x.Shape))
	}
	st.x = x
	inC, inH, inW := sample[0], sample[1], sample[2]
	outH := (inH-p.K)/p.Stride + 1
	outW := (inW-p.K)/p.Stride + 1
	y := batchLike(x, 3, inC, outH, outW)
	inv := 1 / float32(p.K*p.K)
	for s := 0; s < n; s++ {
		xd := x.Data[s*inC*inH*inW:]
		yd := y.Data[s*inC*outH*outW:]
		for c := 0; c < inC; c++ {
			in := xd[c*inH*inW:]
			out := yd[c*outH*outW:]
			for oi := 0; oi < outH; oi++ {
				for oj := 0; oj < outW; oj++ {
					var sum float32
					for ki := 0; ki < p.K; ki++ {
						row := (oi*p.Stride + ki) * inW
						for kj := 0; kj < p.K; kj++ {
							sum += in[row+oj*p.Stride+kj]
						}
					}
					out[oi*outW+oj] = sum * inv
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (p *AvgPool2D) Backward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	n, sample := batchDims(x, 3)
	inC, inH, inW := sample[0], sample[1], sample[2]
	outH := (inH-p.K)/p.Stride + 1
	outW := (inW-p.K)/p.Stride + 1
	dx := tensor.New(x.Shape...)
	inv := 1 / float32(p.K*p.K)
	for s := 0; s < n; s++ {
		dyd := dy.Data[s*inC*outH*outW:]
		dxd := dx.Data[s*inC*inH*inW:]
		for c := 0; c < inC; c++ {
			dout := dyd[c*outH*outW:]
			din := dxd[c*inH*inW:]
			for oi := 0; oi < outH; oi++ {
				for oj := 0; oj < outW; oj++ {
					g := dout[oi*outW+oj] * inv
					for ki := 0; ki < p.K; ki++ {
						row := (oi*p.Stride + ki) * inW
						for kj := 0; kj < p.K; kj++ {
							din[row+oj*p.Stride+kj] += g
						}
					}
				}
			}
		}
	}
	return dx
}

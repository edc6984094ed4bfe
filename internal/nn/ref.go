package nn

import "repro/internal/tensor"

// The reference kernels below are the pre-tiling Conv2D and Dense
// forward and backward passes, kept verbatim: for Conv2D, tap-major
// im2col columns ([N][InC*K*K][P]) and, per sample and output channel,
// one axpy over the sample's pixels per tap, skipping zero weights; for
// Dense, one scalar dot product per sample and output, and a backward
// pass that skips zero output gradients. Every product is rounded
// before its add (an explicit float32 conversion), so no platform fuses
// them. They are the ground truth for the bit-for-bit parity suite
// (TestFloatTiledParity) and the seed side of BenchmarkFloatTiledVsSeed;
// nothing outside this package's tests calls them.

// refForward is the seed Conv2D.Forward.
func (c *Conv2D) refForward(x *tensor.T, st *State) *tensor.T {
	n, inH, inW := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	kk := c.InC * c.K * c.K
	st.x = x
	if cap(st.cols) < n*kk*p {
		st.cols = make([]float32, n*kk*p)
	}
	st.cols = st.cols[:n*kk*p]

	y := tensor.New(n, c.OutC, outH, outW)
	inStride := c.InC * inH * inW
	for s := 0; s < n; s++ {
		cols := st.cols[s*kk*p : (s+1)*kk*p]
		Im2col(x.Data[s*inStride:(s+1)*inStride], c.InC, inH, inW, c.K, c.Stride, c.Pad, cols)
		yd := y.Data[s*c.OutC*p : (s+1)*c.OutC*p]
		for oc := 0; oc < c.OutC; oc++ {
			w := c.W[oc*kk : (oc+1)*kk]
			out := yd[oc*p : (oc+1)*p]
			for q := 0; q < kk; q++ {
				wq := w[q]
				if wq == 0 {
					continue
				}
				col := cols[q*p : (q+1)*p]
				for i, v := range col {
					out[i] += float32(wq * v)
				}
			}
			bias := c.B[oc]
			for i := range out {
				out[i] += bias
			}
		}
	}
	return y
}

// refBackward is the seed Conv2D.Backward; it must follow refForward
// on the same State (it reads the tap-major columns refForward left).
func (c *Conv2D) refBackward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	n, inH, inW := x.Shape[0], x.Shape[2], x.Shape[3]
	outH, outW := c.OutSize(inH, inW)
	p := outH * outW
	kk := c.InC * c.K * c.K

	dcols := make([]float32, kk*p)

	dx := tensor.New(n, c.InC, inH, inW)
	inStride := c.InC * inH * inW
	for s := 0; s < n; s++ {
		cols := st.cols[s*kk*p : (s+1)*kk*p]
		dyd := dy.Data[s*c.OutC*p : (s+1)*c.OutC*p]
		if st.accumGrads {
			for oc := 0; oc < c.OutC; oc++ {
				d := dyd[oc*p : (oc+1)*p]
				gw := c.GW[oc*kk : (oc+1)*kk]
				for q := 0; q < kk; q++ {
					col := cols[q*p : (q+1)*p]
					var sum float32
					for i, v := range col {
						sum += float32(d[i] * v)
					}
					gw[q] += sum
				}
				var sb float32
				for _, v := range d {
					sb += v
				}
				c.GB[oc] += sb
			}
		}
		// Input gradient via dcols = W^T dy, then col2im.
		for i := range dcols {
			dcols[i] = 0
		}
		for oc := 0; oc < c.OutC; oc++ {
			d := dyd[oc*p : (oc+1)*p]
			w := c.W[oc*kk : (oc+1)*kk]
			for q := 0; q < kk; q++ {
				wq := w[q]
				if wq == 0 {
					continue
				}
				dst := dcols[q*p : (q+1)*p]
				for i, v := range d {
					dst[i] += float32(wq * v)
				}
			}
		}
		refCol2im(dcols, c.InC, inH, inW, c.K, c.Stride, c.Pad, dx.Data[s*inStride:(s+1)*inStride])
	}
	return dx
}

// refCol2im is the seed Col2im, kept verbatim so the seed side of
// BenchmarkFloatTiledVsSeed keeps measuring the pre-tiling cost; the
// shared Col2im has since hoisted its bounds tests out of the pixel
// loop. Output is identical either way.
func refCol2im(cols []float32, inC, h, w, k, stride, pad int, dst []float32) {
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
						idx += outW
						continue
					}
					rowBase := base + ii*w
					for oj := 0; oj < outW; oj++ {
						jj := oj*stride + kj - pad
						if jj >= 0 && jj < w {
							dst[rowBase+jj] += cols[row+idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// refForward is the seed Dense.Forward.
func (d *Dense) refForward(x *tensor.T, st *State) *tensor.T {
	n := x.Shape[0]
	st.x = x
	y := tensor.New(n, d.Out)
	for s := 0; s < n; s++ {
		xd := x.Data[s*d.In : (s+1)*d.In]
		yd := y.Data[s*d.Out : (s+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			w := d.W[o*d.In : (o+1)*d.In]
			var sum float32
			for i, v := range xd {
				sum += float32(w[i] * v)
			}
			yd[o] = sum + d.B[o]
		}
	}
	return y
}

// refBackward is the seed Dense.Backward; it must follow refForward on
// the same State.
func (d *Dense) refBackward(dy *tensor.T, st *State) *tensor.T {
	x := st.x
	n := x.Shape[0]
	dx := tensor.New(n, d.In)
	for s := 0; s < n; s++ {
		xd := x.Data[s*d.In : (s+1)*d.In]
		dxd := dx.Data[s*d.In : (s+1)*d.In]
		dyd := dy.Data[s*d.Out : (s+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			g := dyd[o]
			if st.accumGrads {
				d.GB[o] += g
			}
			if g == 0 {
				continue
			}
			w := d.W[o*d.In : (o+1)*d.In]
			if st.accumGrads {
				gw := d.GW[o*d.In : (o+1)*d.In]
				for i, v := range xd {
					gw[i] += float32(g * v)
					dxd[i] += float32(g * w[i])
				}
			} else {
				for i := range dxd {
					dxd[i] += float32(g * w[i])
				}
			}
		}
	}
	return dx
}

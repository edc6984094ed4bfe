package axnn

import (
	"repro/internal/axmult"
	"repro/internal/nn"
	"repro/internal/quant"
)

// qConv is the quantized convolution stage — the layer whose multipliers
// the paper replaces with approximate designs — and, as a 1x1 conv over
// a 1x1 input, the quantized dense stage too (newQDense).
//
// Conv weights are quantized per output channel (filter-wise scales),
// the standard scheme for deep conv stacks: per-tensor scales starve
// small-magnitude filters of resolution.
//
// With activation codes a (zero-point za) and weight codes w (zero-point
// zw of the channel), the exact affine accumulation per output element is
//
//	acc = sum (a-za)(w-zw)
//	    = sum M(a,w) - zw*sum(a) - za*sum(w) + n*za*zw
//
// where M is the multiplier. Only the first term goes through the
// (possibly approximate) LUT; the zero-point corrections are exact adder
// work in the accelerator and are computed exactly here, mirroring the
// TFApprox formulation.
//
// The accumulation is a weight-stationary GEMM over tap-major im2col
// columns with a group of samples side by side (lut_gather.go): the
// transposed multiplier table keeps each weight code's 256 possible
// products in one contiguous 512-byte row, and blocks of convBlock
// output channels share each pass over the columns. Integer
// accumulation is order-independent, so the result is bit-for-bit the
// retained reference kernel's (refForward, ref.go), which tests pin
// for every registered multiplier.
type qConv struct {
	inC, outC, k, stride, pad int

	wCodes []uint8        // [outC][inC*k*k]
	wSum   []int32        // per-outC sum of weight codes
	wQP    []quant.Params // per-outC weight quantizer
	inQP   quant.Params
	outQP  quant.Params
	bias   []float32
	// stairs is the integer-exact requantizer (requant.go), one table
	// per output channel, composed with the following ReLU's code map
	// when that stage is folded in; nil keeps quant.Params.Quantize in
	// the epilogue. stairsQP labels the codes it writes: outQP, or the
	// folded ReLU's output parameters.
	stairs   []stairs
	stairsQP quant.Params

	// dense marks a dense layer's stage: it reads each sample as [inC]
	// flat codes and has one per-tensor weight quantizer. exactT is the
	// exact design's table it runs on without Options.ApproxDense (nil:
	// the active multiplier), and logits marks the last stage, which
	// writes float logits.
	dense  bool
	exactT []uint16
	logits bool
	// noZP drops the zero-point correction (the
	// Options.NoZeroPointCorrection ablation, conv stages only).
	noZP bool
}

// convBlock is the channel block: output channels whose weight rows
// share one pass over the columns.
const convBlock = 4

// newQConv compiles a conv layer, with one weight quantizer per output
// channel or, for a dense layer's 1x1 conv (dense), one per tensor.
func newQConv(c *nn.Conv2D, inQP, outQP quant.Params, bits uint, dense bool) *qConv {
	kk := c.InC * c.K * c.K
	q := &qConv{
		inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
		wCodes: make([]uint8, c.OutC*kk),
		wSum:   make([]int32, c.OutC),
		wQP:    make([]quant.Params, c.OutC),
		inQP:   inQP, outQP: outQP,
		bias:  append([]float32(nil), c.B...),
		dense: dense,
	}
	lo, hi := quant.Range(c.W)
	for oc := 0; oc < c.OutC; oc++ {
		row := c.W[oc*kk : (oc+1)*kk]
		if !dense {
			lo, hi = quant.Range(row)
		}
		qp := quant.Calibrate(lo, hi, bits)
		q.wQP[oc] = qp
		codes := qp.QuantizeSlice(row)
		copy(q.wCodes[oc*kk:(oc+1)*kk], codes)
		var s int32
		for _, w := range codes {
			s += int32(w)
		}
		q.wSum[oc] = s
	}
	return q
}

// newQDense compiles a dense layer as a 1x1 conv over a 1x1 input.
// Section IV-A puts the approximate multipliers in the conv layers
// only, so its products run on the exact design's table unless approx
// is set (Options.ApproxDense: the conv-free FFNN of Fig. 1 and the
// dense-approximation ablation). The last layer writes float logits.
func newQDense(d *nn.Dense, inQP, outQP quant.Params, bits uint, last, approx bool) *qConv {
	q := newQConv(&nn.Conv2D{InC: d.In, OutC: d.Out, K: 1, Stride: 1, W: d.W, B: d.B}, inQP, outQP, bits, true)
	q.logits = last
	if !approx {
		q.exactT = axmult.MustLookup("mul8u_1JFF").TableT()
	}
	return q
}

// forward runs the stage per group of samples: tap-major columns and
// their per-lane code sums, then one gather GEMM pass per block of
// channels and the requantize epilogue per sample. Channels run in
// blocks of four, then a block of two; a last block that would run
// past the channel count starts earlier, overlapping the block before
// it, and its overlapping rows are recomputed but not requantized
// again. A single channel runs as two copies of itself.
func (c *qConv) forward(net *Network, ws *workspace, in qtensor) (qtensor, []float32) {
	if net.ref {
		if c.dense {
			return c.refDenseForward(net, in)
		}
		return c.refForward(net, in)
	}
	h, w := 1, 1
	if !c.dense {
		h, w = in.shape[1], in.shape[2]
	}
	outH := (h+2*c.pad-c.k)/c.stride + 1
	outW := (w+2*c.pad-c.k)/c.stride + 1
	p := outH * outW
	kk := c.inC * c.k * c.k
	inVol := c.inC * h * w
	lutT := net.mulT
	if c.exactT != nil {
		lutT = c.exactT
	}

	var out qtensor
	var logits []float32
	if c.logits {
		// Final logits leave the engine; they must not live in the
		// recycled workspace.
		logits = make([]float32, in.n*c.outC*p)
	} else {
		out = qtensor{n: in.n, shape: []int{c.outC, outH, outW}, data: ws.nextAct(in.n * c.outC * p), qp: c.outQP}
		if c.stairs != nil {
			out.qp = c.stairsQP
		}
	}
	group := groupLanes(p) / p
	for s0 := 0; s0 < in.n; s0 += group {
		gs := min(group, in.n-s0)
		ld := gs * p
		cols := u8(&ws.cols, kk*ld+gatherPad)
		for s := 0; s < gs; s++ {
			x := in.data[(s0+s)*inVol : (s0+s+1)*inVol]
			// im2col in the code domain; padding contributes the
			// zero-point code (real value 0), as in the hardware
			// dataflow.
			im2colCodes(x, c.inC, h, w, c.k, c.stride, c.pad, in.qp.Zero, cols[s*p:], ld)
		}
		aSum := colSums(i32(&ws.aSum, ld), cols, kk)
		acc := i32(&ws.acc, convBlock*ld)
		for oc := 0; oc < c.outC; {
			rows := 2
			if c.outC-oc >= 3 && c.outC >= convBlock {
				rows = convBlock
			}
			oc0, wRow, ldAcc := max(0, min(oc, c.outC-rows)), kk, ld
			if c.outC == 1 {
				wRow, ldAcc = 0, 0
			}
			lutGather(acc, ldAcc, cols, ld, c.wCodes[oc0*kk:], wRow, lutT, kk, ld, rows)
			// Rows before oc were written by the previous block.
			skip := oc - oc0
			live := min(rows, c.outC-oc0) - skip
			for s := 0; s < gs; s++ {
				a, sum := acc[skip*ld+s*p:], aSum[s*p:(s+1)*p]
				if logits != nil {
					c.logitsEpilogue(a, ld, sum, logits[(s0+s)*c.outC*p:], oc, live, p)
				} else {
					c.epilogue(a, ld, sum, out.data[(s0+s)*c.outC*p:], oc, live, p)
				}
			}
			oc += live
		}
	}
	return out, logits
}

// affine returns channel oc's zero-point correction and scale: the
// corrected accumulator t = acc - zw*Σa + fixed is worth
// float32(t)*scale + bias.
func (c *qConv) affine(oc int) (zw, fixed int32, scale, bias float32) {
	za := int32(c.inQP.Zero)
	zw = int32(c.wQP[oc].Zero)
	fixed = int32(c.inC*c.k*c.k)*za*zw - za*c.wSum[oc]
	return zw, fixed, c.inQP.Scale * c.wQP[oc].Scale, c.bias[oc]
}

// epilogue requantizes one block of accumulator rows (row j at
// acc[j*ldAcc:], p lanes each) into channels oc0..oc0+nb-1 of one
// sample's output; the arithmetic is exactly the reference kernel's,
// or its integer-exact staircase (requant.go).
func (c *qConv) epilogue(acc []int32, ldAcc int, aSum []int32, sOut []uint8, oc0, nb, p int) {
	for j := 0; j < nb; j++ {
		oc := oc0 + j
		accj := acc[j*ldAcc : j*ldAcc+p]
		zw, fixed, scale, bias := c.affine(oc)
		dst := sOut[oc*p:][:len(accj)]
		if c.noZP {
			// Ablation: raw LUT sums without the correction adders.
			for i, a := range accj {
				dst[i] = c.outQP.Quantize(float32(a)*scale + bias)
			}
			continue
		}
		sumT := aSum[:len(accj)]
		if c.stairs != nil {
			st := &c.stairs[oc]
			for i, a := range accj {
				dst[i] = st.at(a - zw*sumT[i] + fixed)
			}
			continue
		}
		for i, a := range accj {
			v := float32(a-zw*sumT[i]+fixed)*scale + bias
			dst[i] = c.outQP.Quantize(v)
		}
	}
}

// logitsEpilogue is epilogue for the last stage: it writes the
// corrected values as float logits.
func (c *qConv) logitsEpilogue(acc []int32, ldAcc int, aSum []int32, sOut []float32, oc0, nb, p int) {
	for j := 0; j < nb; j++ {
		oc := oc0 + j
		accj := acc[j*ldAcc : j*ldAcc+p]
		zw, fixed, scale, bias := c.affine(oc)
		dst, sumT := sOut[oc*p:][:len(accj)], aSum[:len(accj)]
		for i, a := range accj {
			dst[i] = float32(a-zw*sumT[i]+fixed)*scale + bias
		}
	}
}

// im2colCodes is Im2col over uint8 codes with a configurable padding
// code (the activation zero-point) and a column stride: tap q of
// output pixel i lands at cols[q*ld+i]. forward lays a group of
// samples side by side with one call per sample at cols[s*p:] and
// ld = group lanes.
func im2colCodes(x []uint8, inC, h, w, k, stride, pad int, padCode uint8, cols []uint8, ld int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	if outH == 1 && outW == 1 && pad == 0 {
		// One output pixel (LeNet-5's conv3, a dense stage): tap
		// (ci, ki, kj) reads input (ci, ki, kj), one code per tap row.
		q := 0
		for ci := 0; ci < inC; ci++ {
			for ki := 0; ki < k; ki++ {
				for _, a := range x[(ci*h+ki)*w : (ci*h+ki)*w+k] {
					cols[q*ld] = a
					q++
				}
			}
		}
		return
	}
	for ci := 0; ci < inC; ci++ {
		base := ci * h * w
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				row := ((ci*k+ki)*k + kj) * ld
				idx := 0
				for oi := 0; oi < outH; oi++ {
					ii := oi*stride + ki - pad
					if ii < 0 || ii >= h {
						dst := cols[row+idx : row+idx+outW]
						for oj := range dst {
							dst[oj] = padCode
						}
						idx += outW
						continue
					}
					rowBase := base + ii*w
					if stride == 1 {
						// Unit stride reads a contiguous input run: pad the
						// out-of-image edges in bulk, copy the interior.
						// Runs are 1 to 28 codes on the paper's models;
						// short ones copy faster element by element than
						// through a copy call.
						j0 := min(max(0, pad-kj), outW)
						j1 := max(min(outW, w+pad-kj), j0)
						dst := cols[row+idx : row+idx+outW]
						run := dst[j0:j1]
						src := x[rowBase+j0+kj-pad:][:len(run)]
						if len(run) >= 16 {
							copy(run, src)
						} else {
							for t, v := range src {
								run[t] = v
							}
						}
						pre, post := dst[:j0], dst[j1:]
						for oj := range pre {
							pre[oj] = padCode
						}
						for oj := range post {
							post[oj] = padCode
						}
						idx += outW
						continue
					}
					dst := cols[row+idx : row+idx+outW]
					for oj := range dst {
						jj := oj*stride + kj - pad
						if jj < 0 || jj >= w {
							dst[oj] = padCode
						} else {
							dst[oj] = x[rowBase+jj]
						}
					}
					idx += outW
				}
			}
		}
	}
}

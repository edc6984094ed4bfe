package nn

import "repro/internal/cpufeat"

// Lane GEMM for the conv layers. Lanes run along the pixel axis, so
// both conv products read their operands in the layouts they already
// have and write their outputs in place:
//
//   - forward: y[s][oc][i] = Σ_q W[oc][q] · cols[q][s*P+i] + B[oc], over
//     tap-major columns (im2colTaps) in which the batch's samples sit
//     side by side, so a sample's pixels at one tap are contiguous;
//   - input gradient: dcols[s][q][i] = Σ_oc W[oc][q] · dy[s][oc][i],
//     straight from W and dy, with no transposed copy of either.
//
// W is read one broadcast element at a time. A layer whose sample has
// fewer pixels than a lane block (LeNet-5's conv3, a 1x1 output) runs
// with lanes spanning the batch instead, through scratch that is
// gathered and scattered per call (span, unspan).
//
// Two microkernels compute four rows x n lanes over the same operands.
// On AVX2 hosts (gemm_amd64.s) eight lanes sit side by side in one YMM
// register; elsewhere a plain Go loop walks a strip of lanes per step
// of the reduction, with the strip's sums in a stack array. Each lane
// reduces its output in ascending index order from +0, rounding each
// product before the add, then adds the bias: the arithmetic of ref.go,
// so both give the reference loops' bytes.

// useLanes selects the AVX2 microkernel. It is set once, from the CPU's
// features; only tests switch it (export_test.go).
var useLanes = cpufeat.AVX2

// FloatGEMM names the conv GEMM microkernel this process runs: "avx2"
// for the assembly kernel, "go" for the portable Go loop.
func FloatGEMM() string {
	if useLanes {
		return "avx2"
	}
	return "go"
}

const (
	// laneRows is the microkernels' row block.
	laneRows = 4
	// maxCallLanes bounds the lanes of one microkernel call, so one
	// call stays short: assembly loops cannot be preempted.
	maxCallLanes = 512
	// goLanes is the Go microkernel's lane strip: four rows of float32
	// sums in 4 KB of stack.
	goLanes = 256
	// minLanePixels is the fewest output pixels per sample that run
	// one sample per lane block; smaller outputs span the batch.
	minLanePixels = 16
)

// gemmLanes computes, for rows r < m and lanes j < n,
//
//	c[r*ldc+j] = Σ_{q<k} a[r*aRow+q*aStep] · b[q*ldb+j]  (+ bias[r])
//
// reduced in ascending q from +0; a nil bias adds nothing. It checks
// every operand's extent, then runs the microkernel in blocks of four
// rows; a last partial block overlaps the one before it, recomputing
// (and rewriting) identical values.
func gemmLanes(c []float32, ldc int, a []float32, aRow, aStep int, b []float32, ldb int, bias []float32, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	if k < 1 || (m-1)*ldc+n > len(c) || (m-1)*aRow+(k-1)*aStep >= len(a) ||
		(k-1)*ldb+n > len(b) || (bias != nil && len(bias) < m) {
		panic("nn: lane GEMM operands out of range")
	}
	if m < laneRows {
		// Each row runs as a block of four copies of itself (row and
		// output strides 0) that all store the same values in one place.
		for r := 0; r < m; r++ {
			var bb []float32
			if bias != nil {
				bb = []float32{bias[r], bias[r], bias[r], bias[r]}
			}
			gemm4(c[r*ldc:], 0, a[r*aRow:], 0, aStep, b, ldb, bb, k, n)
		}
		return
	}
	for r := 0; r < m; r += laneRows {
		r = min(r, m-laneRows)
		var bb []float32
		if bias != nil {
			bb = bias[r:]
		}
		gemm4(c[r*ldc:], ldc, a[r*aRow:], aRow, aStep, b, ldb, bb, k, n)
	}
}

// gemm4 runs one block of four rows on the selected microkernel, at
// most maxCallLanes lanes per call.
func gemm4(c []float32, ldc int, a []float32, aRow, aStep int, b []float32, ldb int, bias []float32, k, n int) {
	for j := 0; j < n; j += maxCallLanes {
		nj := min(maxCallLanes, n-j)
		if !useLanes {
			gemm4Go(c[j:], ldc, a, aRow, aStep, b[j:], ldb, bias, k, nj)
			continue
		}
		var bp *float32
		if bias != nil {
			bp = &bias[0]
		}
		gemm4AVX2(&c[j], ldc, &a[0], aRow, aStep, &b[j], ldb, bp, k, nj)
	}
}

// gemm4Go is the Go microkernel: gemm4AVX2's four rows x n lanes over
// the same operands, goLanes lanes at a time. gemm4 is its only
// caller, on operands whose extents gemmLanes checked. Converting each
// product to float32 before the add keeps it rounded on its own: the
// Go spec forbids fusing a multiply-add across an explicit conversion,
// so arm64 gives amd64's bytes.
func gemm4Go(c []float32, ldc int, a []float32, aRow, aStep int, b []float32, ldb int, bias []float32, k, n int) {
	var strip [laneRows][goLanes]float32
	for j := 0; j < n; j += goLanes {
		s0 := strip[0][:min(goLanes, n-j)]
		s1, s2, s3 := strip[1][:len(s0)], strip[2][:len(s0)], strip[3][:len(s0)]
		clear(s0)
		clear(s1)
		clear(s2)
		clear(s3)
		for q := 0; q < k; q++ {
			x0, x1 := a[q*aStep], a[aRow+q*aStep]
			x2, x3 := a[2*aRow+q*aStep], a[3*aRow+q*aStep]
			for i, v := range b[q*ldb+j:][:len(s0)] {
				s0[i] += float32(x0 * v)
				s1[i] += float32(x1 * v)
				s2[i] += float32(x2 * v)
				s3[i] += float32(x3 * v)
			}
		}
		for r := range strip {
			dst := c[r*ldc+j:][:len(s0)]
			s := strip[r][:len(dst)]
			if bias == nil {
				copy(dst, s)
				continue
			}
			br := bias[r]
			for i, v := range s {
				dst[i] = v + br
			}
		}
	}
}

// forwardLanes is Conv2D.Forward on the lane kernel: it unrolls x into
// tap-major columns with the samples side by side (cols[q*n*p+s*p+i],
// left in st.cols for Backward) and writes y ([n][OutC][p]).
func (c *Conv2D) forwardLanes(x, y []float32, st *State, n, inH, inW, p, kk int) {
	ld := n * p
	cols := grow(&st.cols, kk*ld)
	inStride := c.InC * inH * inW
	for s := 0; s < n; s++ {
		im2colTaps(x[s*inStride:(s+1)*inStride], c.InC, inH, inW, c.K, c.Stride, c.Pad, cols[s*p:], ld)
	}
	if p >= minLanePixels {
		for s := 0; s < n; s++ {
			gemmLanes(y[s*c.OutC*p:], p, c.W, kk, 1, cols[s*p:], ld, c.B, c.OutC, kk, p)
		}
		return
	}
	t := grow(&st.span, c.OutC*ld)
	gemmLanes(t, ld, c.W, kk, 1, cols, ld, c.B, c.OutC, kk, ld)
	unspan(y, t, n, c.OutC, p)
}

// inputGradLanes writes dcols ([n][kk][p], the layout Col2im reads)
// = W^T dy on the lane kernel.
func (c *Conv2D) inputGradLanes(dy, dcols []float32, st *State, n, p, kk int) {
	if p >= minLanePixels {
		for s := 0; s < n; s++ {
			gemmLanes(dcols[s*kk*p:], p, c.W, 1, kk, dy[s*c.OutC*p:], p, nil, kk, c.OutC, p)
		}
		return
	}
	ld := n * p
	b := grow(&st.dyt, c.OutC*ld)
	span(b, dy, n, c.OutC, p)
	t := grow(&st.span, kk*ld)
	gemmLanes(t, ld, c.W, 1, kk, b, ld, nil, kk, c.OutC, ld)
	unspan(dcols, t, n, kk, p)
}

// span lays src ([n][rows][p]) out with each row spanning the batch:
// dst[r*n*p+s*p+i] = src[(s*rows+r)*p+i]. Only small p take this path,
// so it copies element by element.
func span(dst, src []float32, n, rows, p int) {
	ld := n * p
	for s := 0; s < n; s++ {
		for r := 0; r < rows; r++ {
			d := dst[r*ld+s*p : r*ld+(s+1)*p]
			for i, v := range src[(s*rows+r)*p : (s*rows+r+1)*p][:len(d)] {
				d[i] = v
			}
		}
	}
}

// unspan is the inverse of span: dst[(s*rows+r)*p+i] = src[r*n*p+s*p+i].
func unspan(dst, src []float32, n, rows, p int) {
	ld := n * p
	for s := 0; s < n; s++ {
		for r := 0; r < rows; r++ {
			d := dst[(s*rows+r)*p : (s*rows+r+1)*p]
			for i, v := range src[r*ld+s*p : r*ld+(s+1)*p][:len(d)] {
				d[i] = v
			}
		}
	}
}

// im2colTaps is Im2col with a column stride: tap q of output pixel p
// lands at cols[q*ld+p]. One call per sample at cols[s*P:] with
// ld = N*P lays a batch out tap-major with its samples side by side.
// Per tap, each output row is one run of input pixels between zero
// padding. Runs are 1 to 32 pixels on the paper's models; copying them
// element by element measured no slower than a copy call.
func im2colTaps(x []float32, inC, h, w, k, stride, pad int, cols []float32, ld int) {
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	for ci := 0; ci < inC; ci++ {
		for ki := 0; ki < k; ki++ {
			oi0, oi1 := inBounds(ki, pad, stride, h, outH)
			for kj := 0; kj < k; kj++ {
				q := (ci*k+ki)*k + kj
				col := cols[q*ld : q*ld+outH*outW]
				oj0, oj1 := inBounds(kj, pad, stride, w, outW)
				if oj0 == oj1 {
					clear(col)
					continue
				}
				clear(col[:oi0*outW])
				clear(col[oi1*outW:])
				j0 := oj0*stride + kj - pad
				for oi := oi0; oi < oi1; oi++ {
					dst := col[oi*outW : (oi+1)*outW]
					clear(dst[:oj0])
					clear(dst[oj1:])
					run := dst[oj0:oj1]
					row := x[(ci*h+oi*stride+ki-pad)*w+j0:]
					if stride == 1 {
						row = row[:len(run)]
						for t, v := range row {
							run[t] = v
						}
						continue
					}
					for t := range run {
						run[t] = row[t*stride]
					}
				}
			}
		}
	}
}

// dot1x1 is the single dot product a · b, reduced in ascending index
// order from +0 with each product rounded before the add.
func dot1x1(a, b []float32) (s float32) {
	b = b[:len(a)]
	for q, x := range a {
		s += float32(x * b[q])
	}
	return
}

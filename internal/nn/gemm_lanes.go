package nn

import "repro/internal/cpufeat"

// Lane GEMM for the conv layers on AVX2 hosts. Where gemm.go reduces
// each output in a scalar register of a 3x2 tile, the lane kernel puts
// eight independent outputs side by side in one YMM register: lanes
// run along the pixel axis, so both conv products read their operands
// in the layouts they already have and write their outputs in place:
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
// Each lane reduces its output in ascending index order from +0 with a
// separate multiply and add, then adds the bias: the arithmetic of the
// Go tile and of ref.go, so both paths give the same bytes.

// useLanes selects the lane kernel for Conv2D. It is set once, from the
// CPU's features; only tests switch it (export_test.go).
var useLanes = cpufeat.AVX2

// FloatGEMM names the conv GEMM this process runs: "avx2" for the lane
// kernel, "go" for the portable tile.
func FloatGEMM() string {
	if useLanes {
		return "avx2"
	}
	return "go"
}

const (
	// laneRows is the microkernel's row block.
	laneRows = 4
	// maxCallLanes bounds the lanes of one microkernel call, so one
	// call stays short: assembly loops cannot be preempted.
	maxCallLanes = 512
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
			var bb [laneRows]float32
			var bp *float32
			if bias != nil {
				bb = [laneRows]float32{bias[r], bias[r], bias[r], bias[r]}
				bp = &bb[0]
			}
			for j := 0; j < n; j += maxCallLanes {
				gemm4AVX2(&c[r*ldc+j], 0, &a[r*aRow], 0, aStep, &b[j], ldb, bp, k, min(maxCallLanes, n-j))
			}
		}
		return
	}
	for r := 0; r < m; r += laneRows {
		r = min(r, m-laneRows)
		var bp *float32
		if bias != nil {
			bp = &bias[r]
		}
		for j := 0; j < n; j += maxCallLanes {
			gemm4AVX2(&c[r*ldc+j], ldc, &a[r*aRow], aRow, aStep, &b[j], ldb, bp, k, min(maxCallLanes, n-j))
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

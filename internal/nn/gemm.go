package nn

// Register-tiled Go GEMM for the conv layers: the portable path, which
// Conv2D runs where the AVX2 lane kernel (gemm_lanes.go) is
// unavailable. Both conv products are "row times pixel" dot-product
// blocks over operands whose reduction axis is contiguous:
//
//   - forward: y[s][oc][i] = W[oc] · patch[s*P+i] + B[oc], with the
//     pixel-major patches of im2colPatches (reduction over taps);
//   - input gradient: dcols[s][q][i] = Wᵀ[q] · dyᵀ[s*P+i], with W and
//     dy transposed per call into State scratch (reduction over output
//     channels).
//
// The pixel index j = s*P+i spans the whole batch (for the input
// gradient, a chunk of whole samples of at least 64 pixels), so a layer
// with a 1x1 output (LeNet-5's conv3) still fills pixel tiles.
//
// Every output element is one dot product reduced in ascending index
// order into an accumulator that starts at +0, exactly as the
// reference axpy loops (ref.go) reduce it; tiles only split rows and
// pixels, never the reduction, so outputs are bit-identical. The
// reference loops skip zero weights; these do not, which changes
// nothing: the accumulator starts at +0 and under round-to-nearest a
// sum is -0 only if both addends are -0, so it never becomes -0, and
// adding w*v = ±0 (finite v) to it is then the identity. For the same
// reason the input gradient may add a zero bias.

// pixCursor walks the batch-spanning pixel index j = s*P+i and yields
// the offset of (s, row 0, i) in a [N][rows][P] output.
type pixCursor struct {
	base, i, p, sampleStride int
}

func (c *pixCursor) next() int {
	o := c.base + c.i
	c.i++
	if c.i == c.p {
		c.i = 0
		c.base += c.sampleStride
	}
	return o
}

// gemmRowsByPixels computes, for every row r < m of a ([m][k]) and
// every pixel j < n of b ([n][k]), the dot product a[r] · b[j] plus
// bias[r], and stores it at out[(s*m+r)*p+i] for j = s*p+i. A nil bias
// adds +0, which is the identity: a dot product is never -0.
//
// The main tile is 3 rows x 2 pixels, written inline: its six
// accumulators plus five operands fit amd64's float registers without
// spills (a 4x2 tile spills), and inlining it saves a call per tile,
// which dominates when k is as short as a 6-channel reduction.
// The odd last pixel goes through dot3x1, leftover rows through
// gemmRows.
func gemmRowsByPixels(out, a []float32, m int, b []float32, n, k, p int, bias []float32) {
	r := 0
	for ; r+3 <= m; r += 3 {
		a0 := a[r*k : (r+1)*k]
		a1 := a[(r+1)*k : (r+2)*k][:len(a0)]
		a2 := a[(r+2)*k : (r+3)*k][:len(a0)]
		var b0, b1, b2 float32
		if bias != nil {
			b0, b1, b2 = bias[r], bias[r+1], bias[r+2]
		}
		pc := pixCursor{p: p, sampleStride: m * p}
		j := 0
		for ; j+2 <= n; j += 2 {
			v0 := b[j*k : (j+1)*k][:len(a0)]
			v1 := b[(j+1)*k : (j+2)*k][:len(a0)]
			var s00, s01, s10, s11, s20, s21 float32
			for q, x0 := range a0 {
				x1, x2 := a1[q], a2[q]
				y0, y1 := v0[q], v1[q]
				s00 += x0 * y0
				s01 += x0 * y1
				s10 += x1 * y0
				s11 += x1 * y1
				s20 += x2 * y0
				s21 += x2 * y1
			}
			o0, o1 := pc.next()+r*p, pc.next()+r*p
			out[o0], out[o1] = s00+b0, s01+b0
			out[o0+p], out[o1+p] = s10+b1, s11+b1
			out[o0+2*p], out[o1+2*p] = s20+b2, s21+b2
		}
		if j < n {
			s0, s1, s2 := dot3x1(a0, a1, a2, b[j*k:(j+1)*k])
			o := pc.next() + r*p
			out[o], out[o+p], out[o+2*p] = s0+b0, s1+b1, s2+b2
		}
	}
	gemmRows(out, a, r, m, b, n, k, p, bias)
}

// gemmRows is gemmRowsByPixels for the leftover rows [r0, m), at most
// two, as 1x2 tiles. Its loops run once per tile; the reductions are
// in dot1x2 and dot1x1.
func gemmRows(out, a []float32, r0, m int, b []float32, n, k, p int, bias []float32) {
	for r := r0; r < m; r++ {
		row := a[r*k : (r+1)*k]
		var b0 float32
		if bias != nil {
			b0 = bias[r]
		}
		pc := pixCursor{p: p, sampleStride: m * p}
		j := 0
		for ; j+2 <= n; j += 2 {
			s0, s1 := dot1x2(row, b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k])
			out[pc.next()+r*p] = s0 + b0
			out[pc.next()+r*p] = s1 + b0
		}
		if j < n {
			out[pc.next()+r*p] = dot1x1(row, b[j*k:(j+1)*k]) + b0
		}
	}
}

// dot3x1 is the one-pixel edge of the 3x2 tile: a0·b, a1·b, a2·b. All
// rows must have equal length.
func dot3x1(a0, a1, a2, b []float32) (s0, s1, s2 float32) {
	a1, a2, b = a1[:len(a0)], a2[:len(a0)], b[:len(a0)]
	for q, x0 := range a0 {
		y := b[q]
		s0 += x0 * y
		s1 += a1[q] * y
		s2 += a2[q] * y
	}
	return
}

// dot1x2 is the one-row edge of the 3x2 tile: a·b0, a·b1.
func dot1x2(a, b0, b1 []float32) (s0, s1 float32) {
	b0, b1 = b0[:len(a)], b1[:len(a)]
	for q, x := range a {
		s0 += x * b0[q]
		s1 += x * b1[q]
	}
	return
}

// dot1x1 is the single dot product a · b.
func dot1x1(a, b []float32) (s float32) {
	b = b[:len(a)]
	for q, x := range a {
		s += x * b[q]
	}
	return
}

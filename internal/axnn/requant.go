package axnn

import (
	"math"
	"math/bits"
)

// Integer-exact requantization for the conv epilogue.
//
// A conv output code is
//
//	code(t) = outQP.Quantize(float32(t)*scale + bias)
//
// of the corrected accumulator t = acc - zw*Σa + fixed. Every step is
// non-decreasing in t when scale and the output scale are positive and
// finite and the bias is finite: int32 -> float32, times the scale,
// plus the bias, the division, the rounding and the clamp (no step can
// make a NaN). So each channel's map is a staircase of at most 255
// steps, and code(t) is the number of step edges at or below t.
// Compile finds the edges once by bisection over the reachable range
// of t, evaluating the very expression above, and the epilogue then
// reads the code off a table with integer operations only. The result
// is the same code by construction, not an approximation.
//
// The table cuts t into buckets of 2^shift values, no wider than the
// narrowest gap between two distinct edges, so each bucket holds at
// most one edge: the code is the bucket's code below its edge, or the
// next bucket's code once t reaches the edge.
//
// A ReLU stage right after the conv composes with the staircase: its
// code map is non-decreasing too, so the composition is again a
// staircase whose edges are a subset of the conv's, and the conv
// writes the ReLU's codes directly (the qReLU stage then passes them
// through).

// stairs is one output channel's requantize table.
type stairs struct {
	// first is the lowest edge; t below it lands in bucket 0.
	first int64
	shift uint
	// last is the index of the last bucket: t at or past the last
	// edge's bucket stays there.
	last int64
	// edge[k] is bucket k's edge (noEdge when it has none); code[k] is
	// the code below it, and
	// code[k+1] the code from it on. Bucket 0 holds every t below
	// first, and bucket k >= 1 the t in [first+(k-1)<<shift,
	// first+k<<shift).
	edge []int32
	code []uint8
}

// noEdge marks a bucket without an edge: no reachable t reaches it,
// since buildStairs keeps every reachable t below math.MaxInt32.
const noEdge = math.MaxInt32

// maxStairBuckets bounds one channel's table. Edges of an affine map
// are nearly evenly spaced, which gives at most ~2*255 buckets; a
// staircase that needs more keeps quant.Params.Quantize.
const maxStairBuckets = 2048

// at returns the code of t.
func (s *stairs) at(t int32) uint8 {
	k := min(max((int64(t)-s.first)>>s.shift, -1), s.last) + 1
	// +1 when t >= edge[k]: the sign bit of their difference, inverted.
	k += int64(^uint64(int64(t)-int64(s.edge[k])) >> 63)
	return s.code[k]
}

// buildStairs returns the requantize tables of every output channel
// of c, each composed with the code map post when it is non-nil (a
// following ReLU's requantize table). It returns nil, and the epilogue
// keeps quant.Params.Quantize, when it cannot show some channel's map
// non-decreasing (a scale or bias that is not positive and finite, or
// a post map that decreases), when the reachable range of t does not
// fit in int32 with room to spare, or when a table would exceed
// maxStairBuckets.
func (c *qConv) buildStairs(post []uint8) []stairs {
	finite := func(v float32) bool { return !math.IsInf(float64(v), 0) && !math.IsNaN(float64(v)) }
	if !(c.outQP.Scale > 0) || !finite(c.outQP.Scale) {
		return nil
	}
	maxCode := int(c.outQP.MaxCode())
	if post != nil {
		for v := 1; v <= maxCode; v++ {
			if post[v] < post[v-1] {
				return nil
			}
		}
	}
	kk := int64(c.inC * c.k * c.k)
	za := int32(c.inQP.Zero)
	out := make([]stairs, c.outC)
	for oc := range out {
		scale := c.inQP.Scale * c.wQP[oc].Scale
		bias := c.bias[oc]
		if !(scale > 0) || !finite(scale) || !finite(bias) {
			return nil
		}
		zw := int32(c.wQP[oc].Zero)
		fixed := int32(kk)*za*zw - za*c.wSum[oc]
		// acc is a sum of kk uint16 products and Σa of kk uint8 codes.
		lo := int64(fixed) - int64(zw)*kk*math.MaxUint8
		hi := int64(fixed) + kk*math.MaxUint16
		if lo <= math.MinInt32 || hi >= math.MaxInt32 {
			return nil
		}
		code := func(t int64) int {
			return int(c.outQP.Quantize(float32(int32(t))*scale + bias))
		}
		// edges[v] is the least t in [lo, hi] with code(t) >= v, or
		// hi+1: a lower-bound bisection from the previous edge. The
		// real-valued edge, est, narrows the search first; float32
		// rounding moves the true edge by about |t|*2^-23 at most, so
		// a window of 2^-21 relative width (plus a few) usually holds
		// it. The window only speeds the search up: it is kept only as
		// far as code() confirms it.
		biasT := math.Abs(float64(bias) / float64(scale))
		var edges [256]int64
		edges[0] = lo
		for v := 1; v <= maxCode; v++ {
			l, h := edges[v-1], hi+1
			est := ((float64(v)-float64(c.outQP.Zero)-0.5)*float64(c.outQP.Scale) - float64(bias)) / float64(scale)
			if est > float64(lo) && est < float64(hi) {
				e := int64(est)
				d := 4 + int64((math.Abs(est)+biasT)/(1<<21))
				if a := e - d; a > l && a < h && code(a) < v {
					l = a + 1
				}
				if b := e + d; b >= l && b < h && code(b) >= v {
					h = b
				}
			}
			for l < h {
				m := l + (h-l)/2
				if code(m) >= v {
					h = m
				} else {
					l = m + 1
				}
			}
			edges[v] = l
		}
		for v := maxCode + 1; v < 256; v++ {
			edges[v] = hi + 1
		}
		if post != nil {
			// Code v of the composition starts where the conv code
			// first reaches one that post lifts to v or more.
			var comp [256]int64
			k := 0
			for v := range comp {
				for k <= maxCode && int(post[k]) < v {
					k++
				}
				comp[v] = hi + 1
				if k <= maxCode {
					comp[v] = edges[k]
				}
			}
			edges = comp
		}
		s, ok := newStairs(edges[:], lo, hi)
		if !ok {
			return nil
		}
		out[oc] = s
	}
	return out
}

// newStairs builds the bucket table of a staircase over [lo, hi] whose
// code is #{v >= 1 : edges[v] <= t} (edges non-decreasing).
func newStairs(edges []int64, lo, hi int64) (stairs, bool) {
	// below(x) is the code just below x: the count of edges under it.
	// Calls come with non-decreasing x, so it resumes where the last
	// one stopped.
	n := 0
	below := func(x int64) uint8 {
		for n < len(edges)-1 && edges[1+n] < x {
			n++
		}
		return uint8(n)
	}
	// The distinct edges inside (lo, hi]; those at lo are always
	// reached and those past hi never.
	inner := make([]int64, 0, len(edges))
	for _, e := range edges[1:] {
		if e > lo && e <= hi && (len(inner) == 0 || e != inner[len(inner)-1]) {
			inner = append(inner, e)
		}
	}
	if len(inner) == 0 {
		// Constant: bucket 1 holds every t, with no edge.
		c := below(lo + 1)
		return stairs{first: lo, shift: 62, edge: []int32{noEdge, noEdge}, code: []uint8{c, c, c}}, true
	}
	gap := int64(math.MaxInt64)
	for i := 1; i < len(inner); i++ {
		gap = min(gap, inner[i]-inner[i-1])
	}
	s := stairs{first: inner[0], shift: uint(bits.Len64(uint64(gap)) - 1)}
	s.last = (inner[len(inner)-1] - s.first) >> s.shift
	if s.last+1 > maxStairBuckets {
		return stairs{}, false
	}
	nb := s.last + 2
	s.edge = make([]int32, nb)
	s.code = make([]uint8, nb+1)
	s.edge[0] = noEdge
	s.code[0] = below(s.first)
	next := 0 // inner edges before bucket k's start
	for k := int64(1); k < nb; k++ {
		start := s.first + (k-1)<<s.shift
		for next < len(inner) && inner[next] < start {
			next++
		}
		s.edge[k] = noEdge
		s.code[k] = below(start + 1)
		if next < len(inner) && inner[next] < start+1<<s.shift {
			s.edge[k] = int32(inner[next])
			s.code[k] = below(inner[next])
		}
	}
	s.code[nb] = below(hi + 1)
	return s, true
}

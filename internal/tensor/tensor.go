// Package tensor provides the small dense float32 tensor used across the
// DNN stack: row-major storage, explicit shapes, and the vector
// operations the adversarial attacks need (norms, projections, clamps).
//
// Batch convention: a batched tensor packs N samples along a leading
// dimension — [N, C, H, W] for images, [N, F] for flat vectors. Row
// accessors (Row, RowView) return views sharing the underlying storage,
// and the *Rows helpers apply the corresponding per-sample operation to
// every row with the same element order as the scalar operation, so
// batched and per-sample code paths agree bit for bit.
package tensor

import (
	"fmt"
	"math"
)

// T is a dense row-major float32 tensor.
type T struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *T {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: invalid dim %d in %v", s, shape))
		}
		n *= s
	}
	return &T{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape, without copying.
// len(data) must equal the shape volume.
func FromSlice(data []float32, shape ...int) *T {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data len %d != shape %v", len(data), shape))
	}
	return &T{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *T) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *T) Clone() *T {
	c := &T{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of equal volume (shared data).
func (t *T) Reshape(shape ...int) *T {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v volume mismatch", t.Shape, shape))
	}
	return &T{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Unsqueeze returns t as a one-sample batch: a [1, t.Shape...] view
// sharing t's storage. Callers that score or train on a single sample
// pass it to the batch-only model entry points this way.
func (t *T) Unsqueeze() *T {
	return &T{Shape: append([]int{1}, t.Shape...), Data: t.Data}
}

// SameShape reports whether t and o have identical shapes.
func (t *T) SameShape(o *T) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *T) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddScaled adds alpha*o elementwise into t (t += alpha*o).
func (t *T) AddScaled(alpha float32, o *T) {
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *T) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Clamp limits every element into [lo, hi]. Adversarial examples are
// clamped to the valid image box [0,1] after every perturbation step.
func (t *T) Clamp(lo, hi float32) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *T) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// L1Norm returns the sum-abs norm of the flattened tensor.
func (t *T) L1Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// LinfNorm returns the max-abs norm of the flattened tensor.
func (t *T) LinfNorm() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// Sign replaces every element by its sign (-1, 0, +1).
func (t *T) Sign() {
	for i, v := range t.Data {
		switch {
		case v > 0:
			t.Data[i] = 1
		case v < 0:
			t.Data[i] = -1
		default:
			t.Data[i] = 0
		}
	}
}

// Sub returns a-b as a new tensor (shapes must match).
func Sub(a, b *T) *T {
	if !a.SameShape(b) {
		panic("tensor: Sub shape mismatch")
	}
	c := a.Clone()
	for i, v := range b.Data {
		c.Data[i] -= v
	}
	return c
}

// ProjectL2 rescales (t - center) so its L2 norm is at most eps,
// leaving t unchanged if it is already inside the ball.
func ProjectL2(t, center *T, eps float64) {
	d := Sub(t, center)
	n := d.L2Norm()
	if n <= eps || n == 0 {
		return
	}
	scale := float32(eps / n)
	for i := range t.Data {
		t.Data[i] = center.Data[i] + d.Data[i]*scale
	}
}

// ProjectLinf clips (t - center) elementwise into [-eps, eps].
func ProjectLinf(t, center *T, eps float64) {
	e := float32(eps)
	for i := range t.Data {
		d := t.Data[i] - center.Data[i]
		if d > e {
			d = e
		} else if d < -e {
			d = -e
		}
		t.Data[i] = center.Data[i] + d
	}
}

// ArgMax returns the index of the largest element of v.
func ArgMax(v []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// SoftmaxCE returns the cross-entropy loss of logits against label and
// the gradient d loss / d logits (softmax(logits) minus one-hot). The
// float network's loss gradient and the EOT attack's averaged logit
// gradients both come from it.
func SoftmaxCE(logits []float32, label int) (float32, []float32) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	probs := make([]float32, len(logits))
	for i, v := range logits {
		e := math.Exp(float64(v - maxv))
		probs[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range probs {
		probs[i] *= inv
	}
	loss := -float32(math.Log(math.Max(float64(probs[label]), 1e-12)))
	grad := probs
	grad[label] -= 1
	return loss, grad
}

// Stack copies the given same-shaped samples into one fresh batched
// tensor of shape [len(xs), sampleShape...].
func Stack(xs []*T) *T {
	if len(xs) == 0 {
		panic("tensor: Stack of empty sample list")
	}
	shape := append([]int{len(xs)}, xs[0].Shape...)
	b := New(shape...)
	stride := xs[0].Len()
	for i, x := range xs {
		if x.Len() != stride {
			panic(fmt.Sprintf("tensor: Stack sample %d has %d elements, want %d", i, x.Len(), stride))
		}
		copy(b.Data[i*stride:(i+1)*stride], x.Data)
	}
	return b
}

// Rows returns the leading (batch) dimension.
func (t *T) Rows() int { return t.Shape[0] }

// RowLen returns the number of elements per row (sample).
func (t *T) RowLen() int { return t.Len() / t.Shape[0] }

// Row returns a view of sample i with the per-sample shape, sharing
// storage with t.
func (t *T) Row(i int) *T {
	stride := t.RowLen()
	return &T{Shape: append([]int(nil), t.Shape[1:]...), Data: t.Data[i*stride : (i+1)*stride]}
}

// RowView returns rows [lo, hi) as a batched view sharing storage.
func (t *T) RowView(lo, hi int) *T {
	stride := t.RowLen()
	shape := append([]int{hi - lo}, t.Shape[1:]...)
	return &T{Shape: shape, Data: t.Data[lo*stride : hi*stride]}
}

// GatherRows copies the listed rows of a batched tensor into a fresh
// [len(rows), sampleShape...] batch, in list order. Randomized-victim
// evaluation uses it to regroup a batch by the pool member each row
// drew before scoring every group with one LogitsBatch call.
func GatherRows(t *T, rows []int) *T {
	out := New(append([]int{len(rows)}, t.Shape[1:]...)...)
	stride := t.RowLen()
	for i, r := range rows {
		copy(out.Data[i*stride:(i+1)*stride], t.Data[r*stride:(r+1)*stride])
	}
	return out
}

// ScatterRows copies row i of src into row rows[i] of dst — the
// inverse of GatherRows. Row lengths of src and dst must match.
func ScatterRows(dst, src *T, rows []int) {
	if src.Rows() != len(rows) {
		panic(fmt.Sprintf("tensor: ScatterRows of %d rows into %d slots", src.Rows(), len(rows)))
	}
	stride := dst.RowLen()
	if src.RowLen() != stride {
		panic(fmt.Sprintf("tensor: ScatterRows row length %d != %d", src.RowLen(), stride))
	}
	for i, r := range rows {
		copy(dst.Data[r*stride:(r+1)*stride], src.Data[i*stride:(i+1)*stride])
	}
}

// ArgMaxRows returns the per-row argmax of a batched tensor (for
// [N, classes] logits: the predicted class of every sample).
func ArgMaxRows(t *T) []int {
	n, stride := t.Rows(), t.RowLen()
	out := make([]int, n)
	for r := 0; r < n; r++ {
		out[r] = ArgMax(t.Data[r*stride : (r+1)*stride])
	}
	return out
}

// L2NormRows returns the per-row Euclidean norms of a batched tensor.
// Delegating to the scalar norm per row keeps the accumulation order
// identical by construction.
func L2NormRows(t *T) []float64 {
	out := make([]float64, t.Rows())
	for r := range out {
		out[r] = t.Row(r).L2Norm()
	}
	return out
}

// LinfNormRows returns the per-row max-abs norms of a batched tensor.
func LinfNormRows(t *T) []float64 {
	out := make([]float64, t.Rows())
	for r := range out {
		out[r] = t.Row(r).LinfNorm()
	}
	return out
}

// ProjectL2Rows applies ProjectL2 to every row of t around the matching
// row of center.
func ProjectL2Rows(t, center *T, eps float64) {
	if !t.SameShape(center) {
		panic("tensor: ProjectL2Rows shape mismatch")
	}
	for r := 0; r < t.Rows(); r++ {
		ProjectL2(t.Row(r), center.Row(r), eps)
	}
}

// ProjectLinfRows clips every row of t into the elementwise eps-box
// around center. The operation is elementwise, so the batched form is
// identical to per-row ProjectLinf.
func ProjectLinfRows(t, center *T, eps float64) {
	if !t.SameShape(center) {
		panic("tensor: ProjectLinfRows shape mismatch")
	}
	ProjectLinf(t, center, eps)
}

package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d", x.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with non-positive dim must panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidation(t *testing.T) {
	FromSlice(make([]float32, 6), 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong volume must panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

func TestCloneIndependent(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 3)
	v := a.Reshape(6)
	v.Data[5] = 7
	if a.Data[5] != 7 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape volume mismatch must panic")
		}
	}()
	a.Reshape(4)
}

func TestAddScaledAndScale(t *testing.T) {
	a := New(3)
	b := New(3)
	b.Fill(2)
	a.AddScaled(0.5, b)
	for _, v := range a.Data {
		if v != 1 {
			t.Fatalf("AddScaled got %f", v)
		}
	}
	a.Scale(4)
	if a.Data[0] != 4 {
		t.Fatal("Scale wrong")
	}
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float32{-1, 0.5, 2}, 3)
	a.Clamp(0, 1)
	if a.Data[0] != 0 || a.Data[1] != 0.5 || a.Data[2] != 1 {
		t.Fatalf("Clamp got %v", a.Data)
	}
}

func TestNorms(t *testing.T) {
	a := FromSlice([]float32{3, -4}, 2)
	if math.Abs(a.L2Norm()-5) > 1e-9 {
		t.Fatalf("L2 = %f", a.L2Norm())
	}
	if a.LinfNorm() != 4 {
		t.Fatalf("Linf = %f", a.LinfNorm())
	}
}

func TestSign(t *testing.T) {
	a := FromSlice([]float32{-3, 0, 7}, 3)
	a.Sign()
	if a.Data[0] != -1 || a.Data[1] != 0 || a.Data[2] != 1 {
		t.Fatalf("Sign got %v", a.Data)
	}
}

func TestSub(t *testing.T) {
	a := FromSlice([]float32{5, 7}, 2)
	b := FromSlice([]float32{2, 3}, 2)
	c := Sub(a, b)
	if c.Data[0] != 3 || c.Data[1] != 4 {
		t.Fatalf("Sub got %v", c.Data)
	}
}

// TestProjectL2 verifies the projection property: after projection the
// distance is min(eps, original distance), and direction is preserved.
func TestProjectL2(t *testing.T) {
	f := func(seed int64) bool {
		x := FromSlice([]float32{float32(seed%7) - 3, 2, -1}, 3)
		c := New(3)
		before := Sub(x, c).L2Norm()
		ProjectL2(x, c, 1.5)
		after := Sub(x, c).L2Norm()
		want := math.Min(before, 1.5)
		return math.Abs(after-want) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectL2InsideBallUntouched(t *testing.T) {
	x := FromSlice([]float32{0.1, 0.1}, 2)
	c := New(2)
	ProjectL2(x, c, 10)
	if x.Data[0] != 0.1 {
		t.Fatal("projection moved a point already inside the ball")
	}
}

func TestProjectLinf(t *testing.T) {
	x := FromSlice([]float32{0.9, -0.9, 0.05}, 3)
	c := New(3)
	ProjectLinf(x, c, 0.1)
	if x.Data[0] != 0.1 || x.Data[1] != -0.1 || x.Data[2] != 0.05 {
		t.Fatalf("ProjectLinf got %v", x.Data)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float32{1, 5, 3}) != 1 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax([]float32{-2, -1, -3}) != 1 {
		t.Fatal("ArgMax negative values wrong")
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("SameShape false negative")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("SameShape false positive")
	}
	if New(6).SameShape(New(2, 3)) {
		t.Fatal("SameShape rank mismatch")
	}
}

func TestStackAndRowViews(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 1, 2, 2)
	s := Stack([]*T{a, b})
	if len(s.Shape) != 4 || s.Shape[0] != 2 || s.Rows() != 2 || s.RowLen() != 4 {
		t.Fatalf("Stack shape %v", s.Shape)
	}
	r1 := s.Row(1)
	if len(r1.Shape) != 3 || r1.Data[0] != 5 {
		t.Fatalf("Row(1) = %v %v", r1.Shape, r1.Data)
	}
	// Row is a view: writes reach the batch.
	r1.Data[0] = 50
	if s.Data[4] != 50 {
		t.Fatal("Row must share storage")
	}
	v := s.RowView(1, 2)
	if v.Rows() != 1 || v.Data[0] != 50 {
		t.Fatalf("RowView = %v %v", v.Shape, v.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Stack with mismatched sample sizes must panic")
		}
	}()
	Stack([]*T{a, New(3)})
}

func TestArgMaxRows(t *testing.T) {
	s := FromSlice([]float32{0, 9, 1, 7, 2, 3}, 2, 3)
	got := ArgMaxRows(s)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

// TestRowOpsMatchScalar pins the batched/scalar parity contract: every
// *Rows helper must produce bit-identical results to applying the
// scalar operation to each row.
func TestRowOpsMatchScalar(t *testing.T) {
	batch := FromSlice([]float32{3, -4, 0, 0.6, -0.8, 0.1}, 2, 3)
	center := FromSlice([]float32{0, 0, 0, 0.5, -0.5, 0}, 2, 3)

	l2 := L2NormRows(batch)
	linf := LinfNormRows(batch)
	for r := 0; r < 2; r++ {
		if l2[r] != batch.Row(r).L2Norm() {
			t.Fatalf("L2NormRows[%d] = %v, scalar %v", r, l2[r], batch.Row(r).L2Norm())
		}
		if linf[r] != batch.Row(r).LinfNorm() {
			t.Fatalf("LinfNormRows[%d] mismatch", r)
		}
	}

	bl2, sl2 := batch.Clone(), batch.Clone()
	ProjectL2Rows(bl2, center, 0.25)
	for r := 0; r < 2; r++ {
		ProjectL2(sl2.Row(r), center.Row(r), 0.25)
	}
	for i := range bl2.Data {
		if bl2.Data[i] != sl2.Data[i] {
			t.Fatalf("ProjectL2Rows diverged from scalar at %d", i)
		}
	}

	bli, sli := batch.Clone(), batch.Clone()
	ProjectLinfRows(bli, center, 0.25)
	for r := 0; r < 2; r++ {
		ProjectLinf(sli.Row(r), center.Row(r), 0.25)
	}
	for i := range bli.Data {
		if bli.Data[i] != sli.Data[i] {
			t.Fatalf("ProjectLinfRows diverged from scalar at %d", i)
		}
	}
}

func TestSoftmaxCEProperties(t *testing.T) {
	logits := []float32{1, 2, 3}
	loss, grad := SoftmaxCE(append([]float32(nil), logits...), 2)
	if loss <= 0 {
		t.Fatal("loss must be positive")
	}
	var s float32
	for _, g := range grad {
		s += g
	}
	if math.Abs(float64(s)) > 1e-5 {
		t.Fatalf("softmax CE gradient must sum to 0, got %f", s)
	}
	if grad[2] >= 0 {
		t.Fatal("gradient at the true label must be negative")
	}
}

func TestSoftmaxCEStability(t *testing.T) {
	loss, _ := SoftmaxCE([]float32{1000, -1000}, 0)
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatal("softmax must be stable for large logits")
	}
}

func TestUnsqueezeIsOneRowView(t *testing.T) {
	x := New(2, 3)
	b := x.Unsqueeze()
	if len(b.Shape) != 3 || b.Shape[0] != 1 || b.Rows() != 1 || b.RowLen() != 6 {
		t.Fatalf("Unsqueeze shape %v", b.Shape)
	}
	b.Data[4] = 7
	if x.Data[4] != 7 {
		t.Fatal("Unsqueeze must share storage")
	}
}

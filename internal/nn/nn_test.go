package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericalInputGrad estimates d loss / d x by central differences.
func numericalInputGrad(n *Network, x *tensor.T, label int, i int) float64 {
	const h = 1e-3
	orig := x.Data[i]
	x.Data[i] = orig + h
	lp, _ := lossOnly(n, x, label)
	x.Data[i] = orig - h
	lm, _ := lossOnly(n, x, label)
	x.Data[i] = orig
	return (lp - lm) / (2 * h)
}

func lossOnly(n *Network, x *tensor.T, label int) (float64, []float32) {
	logits := n.LogitsBatch(x.Unsqueeze())
	loss, _ := tensor.SoftmaxCE(append([]float32(nil), logits.Data...), label)
	return float64(loss), logits.Data
}

func smallConvNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return &Network{
		Name: "test",
		Layers: []Layer{
			NewConv2D(2, 3, 3, 1, 1, rng),
			&ReLU{},
			NewAvgPool2D(2, 2),
			NewConv2D(3, 4, 3, 1, 0, rng),
			&ReLU{},
			&Flatten{},
			NewDense(4, 5, rng),
		},
	}
}

func randInput(shape []int, seed int64) *tensor.T {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	return x
}

// TestInputGradientNumerically validates the full backward pass through
// conv, relu, pool, flatten, and dense layers against finite
// differences — the correctness bedrock for every gradient attack.
func TestInputGradientNumerically(t *testing.T) {
	net := smallConvNet(1)
	x := randInput([]int{2, 6, 6}, 2)
	_, grad := net.LossGradBatch(x.Unsqueeze(), []int{3})
	for _, i := range []int{0, 7, 35, 50, 71} {
		num := numericalInputGrad(net, x, 3, i)
		got := float64(grad.Data[i])
		if math.Abs(num-got) > 1e-2*math.Max(1, math.Abs(num)) {
			t.Errorf("input grad[%d]: analytic %.6f vs numeric %.6f", i, got, num)
		}
	}
}

// TestWeightGradientNumerically validates weight gradients for conv and
// dense layers by finite differences. Training passes accumulate via
// AccumGrad; plain LossGradBatch must leave the buffers untouched.
func TestWeightGradientNumerically(t *testing.T) {
	net := smallConvNet(3)
	x := randInput([]int{2, 6, 6}, 4)
	net.ZeroGrads()
	net.AccumGrad(x, 1)
	params := net.Params()
	const h = 1e-3
	for pi, p := range params {
		for _, wi := range []int{0, len(p.W) / 2, len(p.W) - 1} {
			orig := p.W[wi]
			p.W[wi] = orig + float32(h)
			lp, _ := lossOnly(net, x, 1)
			p.W[wi] = orig - float32(h)
			lm, _ := lossOnly(net, x, 1)
			p.W[wi] = orig
			num := (lp - lm) / (2 * h)
			got := float64(p.G[wi])
			if math.Abs(num-got) > 1e-2*math.Max(1, math.Abs(num)) {
				t.Errorf("param %d grad[%d]: analytic %.6f vs numeric %.6f", pi, wi, got, num)
			}
		}
	}
}

func TestConvOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(1, 6, 5, 1, 2, rng)
	y := c.Forward(tensor.New(1, 1, 28, 28), &State{})
	if len(y.Shape) != 4 || y.Shape[0] != 1 || y.Shape[1] != 6 || y.Shape[2] != 28 || y.Shape[3] != 28 {
		t.Fatalf("conv output shape %v", y.Shape)
	}
	c2 := NewConv2D(1, 2, 5, 1, 0, rng)
	y2 := c2.Forward(tensor.New(1, 1, 28, 28), &State{})
	if y2.Shape[2] != 24 {
		t.Fatalf("no-pad conv output %v", y2.Shape)
	}
	yb := c.Forward(tensor.New(3, 1, 28, 28), &State{})
	if len(yb.Shape) != 4 || yb.Shape[0] != 3 || yb.Shape[1] != 6 {
		t.Fatalf("batched conv output shape %v", yb.Shape)
	}
}

func TestConvRejectsWrongChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(3, 4, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("conv must panic on channel mismatch")
		}
	}()
	c.Forward(tensor.New(1, 1, 8, 8), &State{})
}

func TestAvgPool(t *testing.T) {
	p := NewAvgPool2D(2, 0)
	st := &State{}
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := p.Forward(x, st)
	if y.Len() != 1 || y.Data[0] != 2.5 {
		t.Fatalf("avgpool got %v", y.Data)
	}
	dy := tensor.FromSlice([]float32{4}, 1, 1, 1, 1)
	dx := p.Backward(dy, st)
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatalf("avgpool backward %v", dx.Data)
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	st := &State{}
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	// Zero and -0 are switched off (to +0, with no gradient); NaN is
	// passed through with its gradient.
	x := tensor.FromSlice([]float32{-1, 2, 0, negZero, nan}, 5)
	y := r.Forward(x, st)
	if y.Data[0] != 0 || y.Data[1] != 2 || math.Float32bits(y.Data[2]) != 0 || math.Float32bits(y.Data[3]) != 0 || !math.IsNaN(float64(y.Data[4])) {
		t.Fatalf("relu forward wrong: %v", y.Data)
	}
	dx := r.Backward(tensor.FromSlice([]float32{5, 5, 5, 5, 5}, 5), st)
	if dx.Data[0] != 0 || dx.Data[1] != 5 || dx.Data[2] != 0 || dx.Data[3] != 0 || dx.Data[4] != 5 {
		t.Fatalf("relu backward wrong: %v", dx.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := &Flatten{}
	st := &State{}
	// Flat batches pass through.
	y := f.Forward(tensor.New(2, 12), st)
	if len(y.Shape) != 2 || y.Shape[0] != 2 || y.Shape[1] != 12 {
		t.Fatalf("flat flatten forward %v", y.Shape)
	}
	dx := f.Backward(tensor.New(2, 12), st)
	if len(dx.Shape) != 2 || dx.Shape[0] != 2 {
		t.Fatalf("flat flatten backward %v", dx.Shape)
	}
	// Image batches keep the leading sample dimension.
	yb := f.Forward(tensor.New(5, 2, 3, 4), st)
	if len(yb.Shape) != 2 || yb.Shape[0] != 5 || yb.Shape[1] != 24 {
		t.Fatalf("batched flatten forward %v", yb.Shape)
	}
	dxb := f.Backward(tensor.New(5, 24), st)
	if len(dxb.Shape) != 4 || dxb.Shape[0] != 5 {
		t.Fatalf("batched flatten backward %v", dxb.Shape)
	}
}

func TestCloneSharesWeightsNotGrads(t *testing.T) {
	net := smallConvNet(5)
	c := net.Clone()
	// Same weight storage.
	if &net.Params()[0].W[0] != &c.Params()[0].W[0] {
		t.Fatal("clone must share weights")
	}
	// Different gradient storage: training on the clone stays private.
	x := randInput([]int{2, 6, 6}, 6)
	c.AccumGrad(x, 0)
	var orig float32
	for _, g := range net.Params()[0].G {
		orig += g * g
	}
	if orig != 0 {
		t.Fatal("clone training pass leaked into master grads")
	}
	var cloned float32
	for _, g := range c.Params()[0].G {
		cloned += g * g
	}
	if cloned == 0 {
		t.Fatal("AccumGrad on the clone accumulated nothing")
	}
}

// TestLossGradLeavesWeightGradsUntouched pins the statelessness
// contract attacks rely on: LossGradBatch computes input gradients
// without writing to the shared weight-gradient buffers.
func TestLossGradLeavesWeightGradsUntouched(t *testing.T) {
	net := smallConvNet(5)
	net.ZeroGrads()
	xs := randInput([]int{2, 2, 6, 6}, 6)
	net.LossGradBatch(xs, []int{0, 1})
	for _, p := range net.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatal("LossGradBatch accumulated weight gradients")
			}
		}
	}
}

// TestSharedNetworkConcurrentForward exercises the stateless design:
// many goroutines call LogitsBatch and LossGradBatch on ONE shared
// network (no clones) and must all see identical results.
func TestSharedNetworkConcurrentForward(t *testing.T) {
	net := smallConvNet(7)
	xs := randInput([]int{3, 2, 6, 6}, 8)
	labels := []int{1, 0, 4}
	want := net.LogitsBatch(xs).Data
	_, wantGrad := net.LossGradBatch(xs, labels)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			out := net.LogitsBatch(xs).Data
			for j := range want {
				if out[j] != want[j] {
					done <- errors.New("concurrent shared forward diverged")
					return
				}
			}
			_, g := net.LossGradBatch(xs, labels)
			for j := range wantGrad.Data {
				if g.Data[j] != wantGrad.Data[j] {
					done <- errors.New("concurrent shared LossGradBatch diverged")
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestIm2colCol2imAdjoint(t *testing.T) {
	// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
	rng := rand.New(rand.NewSource(9))
	inC, h, w, k, stride, pad := 2, 5, 5, 3, 1, 1
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	nCols := inC * k * k * outH * outW
	x := make([]float32, inC*h*w)
	y := make([]float32, nCols)
	for i := range x {
		x[i] = rng.Float32()
	}
	for i := range y {
		y[i] = rng.Float32()
	}
	cols := make([]float32, nCols)
	Im2col(x, inC, h, w, k, stride, pad, cols)
	var lhs float64
	for i := range cols {
		lhs += float64(cols[i]) * float64(y[i])
	}
	xt := make([]float32, len(x))
	Col2im(y, inC, h, w, k, stride, pad, xt)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(xt[i])
	}
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Fatalf("adjoint identity violated: %f vs %f", lhs, rhs)
	}
}

// TestDeepCloneDetachesWeights: mutating a DeepClone's weights must
// leave the base network (and its fingerprint) untouched — the
// contract hardened derived models rely on.
func TestDeepCloneDetachesWeights(t *testing.T) {
	base := smallConvNet(21)
	fp := base.WeightsFingerprint()
	x := randInput([]int{1, 2, 6, 6}, 22)
	want := base.LogitsBatch(x).Data

	c := base.DeepClone()
	got := c.LogitsBatch(x).Data
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("DeepClone changed the forward pass")
		}
	}
	for _, p := range c.Params() {
		for i := range p.W {
			p.W[i] += 1
		}
	}
	if base.WeightsFingerprint() != fp {
		t.Fatal("mutating a DeepClone's weights changed the base fingerprint")
	}
	after := base.LogitsBatch(x).Data
	for i := range want {
		if after[i] != want[i] {
			t.Fatal("mutating a DeepClone's weights changed the base network")
		}
	}
	if c.WeightsFingerprint() == fp {
		t.Fatal("clone fingerprint did not track its own mutation")
	}
}

// TestGradFromLogitsBatchMatchesLossGradBatch: feeding SoftmaxCE's own
// dlogits through GradFromLogitsBatch must reproduce LossGradBatch bit
// for bit — the identity that makes it a faithful BPDA backward hook.
func TestGradFromLogitsBatchMatchesLossGradBatch(t *testing.T) {
	net := smallConvNet(31)
	xs := randInput([]int{3, 2, 6, 6}, 32)
	labels := []int{1, 4, 0}
	_, want := net.LossGradBatch(xs, labels)

	logits := net.LogitsBatch(xs)
	classes := logits.Shape[1]
	dlogits := tensor.New(3, classes)
	for r := 0; r < 3; r++ {
		_, dl := tensor.SoftmaxCE(append([]float32(nil), logits.Data[r*classes:(r+1)*classes]...), labels[r])
		copy(dlogits.Data[r*classes:(r+1)*classes], dl)
	}
	got := net.GradFromLogitsBatch(xs, dlogits)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("grad[%d]: GradFromLogitsBatch %v != LossGradBatch %v", i, got.Data[i], want.Data[i])
		}
	}
}

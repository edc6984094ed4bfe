package axnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/axmult"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func tinyNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return &nn.Network{
		Name: "tiny",
		Layers: []nn.Layer{
			nn.NewConv2D(1, 4, 3, 1, 1, rng),
			&nn.ReLU{},
			nn.NewAvgPool2D(2, 2),
			nn.NewConv2D(4, 6, 3, 1, 0, rng),
			&nn.ReLU{},
			&nn.Flatten{},
			nn.NewDense(6*2*2, 8, rng),
			&nn.ReLU{},
			nn.NewDense(8, 4, rng),
		},
	}
}

func calibSet(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	var xs []*tensor.T
	for i := 0; i < n; i++ {
		x := tensor.New(1, 8, 8)
		for j := range x.Data {
			x.Data[j] = rng.Float32()
		}
		xs = append(xs, x)
	}
	return xs
}

// TestExactQuantizationTracksFloat verifies the engine with the exact
// multiplier approximates the float network: same argmax on most
// inputs and logits within quantization tolerance.
func TestExactQuantizationTracksFloat(t *testing.T) {
	net := tinyNet(1)
	calib := calibSet(32, 2)
	q, err := Compile(net, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, x := range calibSet(64, 3) {
		fl := net.Logits(x)
		ql := q.Logits(x)
		if len(fl) != len(ql) {
			t.Fatal("logit length mismatch")
		}
		if tensor.ArgMax(fl) == tensor.ArgMax(ql) {
			agree++
		}
	}
	if agree < 58 { // allow a few borderline flips out of 64
		t.Fatalf("quantized engine agrees on only %d/64 inputs", agree)
	}
}

func TestCompileRejectsEmptyCalibration(t *testing.T) {
	if _, err := Compile(tinyNet(1), nil, Options{}); err == nil {
		t.Fatal("expected error for empty calibration")
	}
}

func TestWithMultiplierIsolation(t *testing.T) {
	net := tinyNet(4)
	calib := calibSet(16, 5)
	q, err := Compile(net, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := q.MultiplierName()
	q2 := q.WithMultiplier(axmult.MustLookup("mul8u_JV3"))
	if q.MultiplierName() != exact {
		t.Fatal("WithMultiplier mutated the original network")
	}
	if q2.MultiplierName() != "mul8u_JV3" {
		t.Fatal("WithMultiplier did not set the new multiplier")
	}
}

func TestApproximateMultiplierChangesOutputs(t *testing.T) {
	net := tinyNet(6)
	calib := calibSet(16, 7)
	q, err := Compile(net, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qa := q.WithMultiplier(axmult.MustLookup("mul8u_FTA"))
	x := calibSet(1, 8)[0]
	le := q.Logits(x)
	la := qa.Logits(x)
	diff := 0.0
	for i := range le {
		diff += math.Abs(float64(le[i] - la[i]))
	}
	if diff == 0 {
		t.Fatal("an approximate multiplier should perturb the logits")
	}
}

func TestConcurrentLogits(t *testing.T) {
	net := tinyNet(9)
	calib := calibSet(16, 10)
	q, err := Compile(net, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := calibSet(1, 11)[0]
	want := append([]float32(nil), q.Logits(x)...)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := q.Logits(x)
			for j := range want {
				if got[j] != want[j] {
					t.Error("concurrent Logits diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReducedBitsStillClassifies(t *testing.T) {
	net := tinyNet(12)
	calib := calibSet(32, 13)
	q8, err := Compile(net, calib, Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	q4, err := Compile(net, calib, Options{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 4-bit quantization must run and produce finite logits; agreement
	// with 8-bit will be partial by design.
	x := calibSet(1, 14)[0]
	for _, v := range q4.Logits(x) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("4-bit engine produced non-finite logits")
		}
	}
	_ = q8
}

func TestApproxDenseOption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ff := &nn.Network{
		Name: "ff",
		Layers: []nn.Layer{
			&nn.Flatten{},
			nn.NewDense(16, 12, rng),
			&nn.ReLU{},
			nn.NewDense(12, 3, rng),
		},
	}
	var calib []*tensor.T
	crng := rand.New(rand.NewSource(16))
	for i := 0; i < 16; i++ {
		x := tensor.New(16)
		for j := range x.Data {
			x.Data[j] = crng.Float32()
		}
		calib = append(calib, x)
	}
	qe, err := Compile(ff, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qa, err := Compile(ff, calib, Options{ApproxDense: true})
	if err != nil {
		t.Fatal(err)
	}
	qa = qa.WithMultiplier(axmult.MustLookup("mul8u_FTA"))
	x := calib[0]
	de, da := qe.Logits(x), qa.Logits(x)
	diff := 0.0
	for i := range de {
		diff += math.Abs(float64(de[i] - da[i]))
	}
	if diff == 0 {
		t.Fatal("ApproxDense with an approximate multiplier should change dense outputs")
	}
	// Without ApproxDense, dense layers must be immune to the
	// multiplier choice (conv-free network => identical outputs).
	qe2 := qe.WithMultiplier(axmult.MustLookup("mul8u_FTA"))
	d2 := qe2.Logits(x)
	for i := range de {
		if de[i] != d2[i] {
			t.Fatal("dense layers must not use the approximate multiplier by default")
		}
	}
}

// TestZeroPointCorrectionExactness: with the exact multiplier, the
// LUT path plus zero-point corrections must equal the direct integer
// affine convolution — i.e. the error introduced by the engine is only
// quantization, never bookkeeping.
func TestZeroPointCorrectionExactness(t *testing.T) {
	net := tinyNet(20)
	calib := calibSet(16, 21)
	q, err := Compile(net, calib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find the first qConv and run one output by hand.
	qc, ok := q.layers[0].(*qConv)
	if !ok {
		t.Fatalf("layer 0 is %T, want *qConv", q.layers[0])
	}
	x := calibSet(1, 22)[0]
	in := qtensor{n: 1, shape: x.Shape, data: q.inQP.QuantizeSlice(x.Data), qp: q.inQP}
	ws := q.getWS()
	defer q.putWS(ws)
	// Check the conv alone: a copy of the stage with its own,
	// unfolded requantizer, so the code compared is the conv's.
	conv := *qc
	conv.stairs, conv.stairsQP = qc.buildStairs(nil), qc.outQP
	out, _ := conv.forward(q, ws, in)

	// Direct affine computation for output (oc=0, oi=0, oj=0).
	kk := qc.inC * qc.k * qc.k
	cols := make([]uint8, kk*((8+2*qc.pad-qc.k)/qc.stride+1)*((8+2*qc.pad-qc.k)/qc.stride+1))
	im2colCodes(in.data, qc.inC, 8, 8, qc.k, qc.stride, qc.pad, in.qp.Zero, cols, len(cols)/kk)
	p := len(cols) / kk
	var acc int32
	for qi := 0; qi < kk; qi++ {
		a := int32(cols[qi*p+0]) - int32(qc.inQP.Zero)
		w := int32(qc.wCodes[qi]) - int32(qc.wQP[0].Zero)
		acc += a * w
	}
	v := float32(acc)*qc.inQP.Scale*qc.wQP[0].Scale + qc.bias[0]
	want := qc.outQP.Quantize(v)
	if out.data[0] != want {
		t.Fatalf("zero-point correction mismatch: engine %d, direct %d", out.data[0], want)
	}
	if out.qp != qc.outQP {
		t.Fatalf("unfolded conv labels its codes %+v, want %+v", out.qp, qc.outQP)
	}

	// The production stage, with the ReLU folded in, writes the ReLU's
	// codes of that conv output and labels them with its parameters.
	relu, ok := q.layers[1].(*qReLU)
	if !ok || !relu.folded {
		t.Fatalf("layer 1 is %T (folded %v), want a folded *qReLU", q.layers[1], ok && relu.folded)
	}
	conv0 := append([]uint8(nil), out.data...)
	folded, _ := qc.forward(q, ws, in)
	for i, c := range conv0 {
		if folded.data[i] != relu.lut[c] {
			t.Fatalf("folded output %d: %d, want relu(%d) = %d", i, folded.data[i], c, relu.lut[c])
		}
	}
	if folded.qp != relu.outQP {
		t.Fatalf("folded conv labels its codes %+v, want the ReLU's %+v", folded.qp, relu.outQP)
	}
}

package axnn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/axmult"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// parityNets returns conv+dense stacks covering the shape corners of
// the gather GEMM's driver: padded and strided convolutions, channel
// counts that take a block of four, a block of two after it, and a
// last block overlapping the one before, pooling, and the dense stages.
func parityNets() []*nn.Network {
	rng := rand.New(rand.NewSource(97))
	return []*nn.Network{
		{
			Name: "parity-pad",
			Layers: []nn.Layer{
				nn.NewConv2D(1, 6, 3, 1, 1, rng), // pad=1, outC=6: a block of four, then one of two
				&nn.ReLU{},
				nn.NewAvgPool2D(2, 2),
				nn.NewConv2D(6, 4, 3, 1, 0, rng), // outC=4: exactly one block
				&nn.ReLU{},
				&nn.Flatten{},
				nn.NewDense(4*2*2, 10, rng),
				&nn.ReLU{},
				nn.NewDense(10, 4, rng),
			},
		},
		{
			Name: "parity-stride",
			Layers: []nn.Layer{
				nn.NewConv2D(2, 5, 3, 2, 2, rng), // stride=2, pad=2, outC=5: a block of two overlaps the block of four
				&nn.ReLU{},
				nn.NewConv2D(5, 3, 3, 1, 0, rng), // outC=3: two overlapping blocks of two
				&nn.ReLU{},
				&nn.Flatten{},
				nn.NewDense(3*3*3, 5, rng),
			},
		},
	}
}

func parityBatch(chans, n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	var xs []*tensor.T
	for i := 0; i < n; i++ {
		x := tensor.New(chans, 8, 8)
		for j := range x.Data {
			x.Data[j] = rng.Float32()*2 - 0.5
		}
		xs = append(xs, x)
	}
	return xs
}

func assertSameLogits(t *testing.T, label string, want, got *tensor.T) {
	t.Helper()
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: logit count %d != %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: logit %d diverged: reference %v, tiled %v", label, i, want.Data[i], got.Data[i])
		}
	}
}

// TestTiledKernelParityAllMultipliers pins the tentpole's correctness
// claim: for EVERY multiplier in the axmult registry, on conv+dense
// stacks with padded and strided shapes and on the dense-only FFNN
// (ApproxDense off and on), with random batches, the tiled
// weight-major kernel produces logits bit-identical to the retained
// reference kernel.
func TestTiledKernelParityAllMultipliers(t *testing.T) {
	onEachKernel(t, parityAllMultipliers)
}

// onEachKernel runs body on the conv kernel this CPU selects (the AVX2
// gather kernel where the CPU has it) and, on AVX2 hosts, once more
// with the Go microkernel forced ("go").
func onEachKernel(t *testing.T, body func(t *testing.T)) {
	body(t)
	if LUTKernel() == "avx2" {
		t.Run("go", func(t *testing.T) {
			defer forceGoKernel()()
			body(t)
		})
	}
}

func parityAllMultipliers(t *testing.T) {
	names := axmult.Names()
	if len(names) < 20 {
		t.Fatalf("registry unexpectedly small: %d designs", len(names))
	}
	for ni, net := range parityNets() {
		chans := net.Layers[0].(*nn.Conv2D).InC
		q, err := Compile(net, parityBatch(chans, 12, int64(100+ni)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		batch := tensor.Stack(parityBatch(chans, 5, int64(200+ni)))
		for _, name := range names {
			lut, err := axmult.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			eng := q.WithMultiplier(lut)
			want := eng.WithReferenceKernel().LogitsBatch(batch)
			got := eng.LogitsBatch(batch)
			assertSameLogits(t, fmt.Sprintf("%s/%s", net.Name, name), want, got)
		}
	}
	// The Fig. 1 FFNN has only dense stages: with ApproxDense off they
	// run on the exact design's table whatever the active multiplier,
	// against the reference kernel's int32 MACs; with it on, on the
	// active multiplier. Nine samples fill one lane block plus a tail.
	// The biases are nonzero, so the logits epilogue adds them.
	ffnn := models.FFNN(28*28, 10, 131)
	rng := rand.New(rand.NewSource(134))
	for _, p := range ffnn.Params() {
		if p.Name == "B" {
			for i := range p.W {
				p.W[i] = rng.Float32() - 0.5
			}
		}
	}
	calib, batch := digitBatch(12, 132), tensor.Stack(digitBatch(9, 133))
	for _, approx := range []bool{false, true} {
		q, err := Compile(ffnn, calib, Options{ApproxDense: approx})
		if err != nil {
			t.Fatal(err)
		}
		var want *tensor.T
		for _, name := range names {
			eng := q.WithMultiplier(axmult.MustLookup(name))
			if want == nil || approx {
				// Exact dense stages give one reference for every design.
				want = eng.WithReferenceKernel().LogitsBatch(batch)
			}
			got := eng.LogitsBatch(batch)
			assertSameLogits(t, fmt.Sprintf("ffnn/approx-dense=%t/%s", approx, name), want, got)
		}
	}
}

// digitBatch returns n digits-shaped 1x28x28 inputs in [-0.5, 1.5).
func digitBatch(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		xs[i] = tensor.New(1, 28, 28)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float32()*2 - 0.5
		}
	}
	return xs
}

// sparseParityBatch builds inputs whose real value is exactly zero
// with probability 1-density — after quantization those positions hold
// the activation zero-point code.
func sparseParityBatch(chans, n int, density float64, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	var xs []*tensor.T
	for i := 0; i < n; i++ {
		x := tensor.New(chans, 8, 8)
		for j := range x.Data {
			if rng.Float64() < density {
				x.Data[j] = rng.Float32()*2 - 0.5
			}
		}
		xs = append(xs, x)
	}
	return xs
}

// TestTiledKernelParitySparse covers mostly-zero inputs: batches mixing
// mostly-zero samples, dense samples, and an all-zero sample must stay
// bit-identical to the reference kernel on padded stride-1 convs,
// strided convs, and a 1x1-output conv with a seven-channel block
// overlap, across structurally diverse multipliers.
func TestTiledKernelParitySparse(t *testing.T) {
	onEachKernel(t, paritySparse)
}

func paritySparse(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	nets := parityNets()
	nets = append(nets, &nn.Network{
		Name: "parity-1x1",
		Layers: []nn.Layer{
			nn.NewConv2D(1, 7, 8, 1, 0, rng), // k == input size: p == 1, outC=7: a block of four, then one overlapping it
			&nn.ReLU{},
			&nn.Flatten{},
			nn.NewDense(7, 4, rng),
		},
	})
	muls := []string{"mul8u_1JFF", "mul8u_17KS", "mul8u_JV3", "mul8u_L40", "mul8u_QJD", "mul8u_FTA"}
	for ni, net := range nets {
		chans := net.Layers[0].(*nn.Conv2D).InC
		q, err := Compile(net, sparseParityBatch(chans, 12, 0.4, int64(400+ni)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var xs []*tensor.T
		xs = append(xs, sparseParityBatch(chans, 3, 0.08, int64(500+ni))...) // mostly zero
		xs = append(xs, parityBatch(chans, 2, int64(510+ni))...)             // dense
		xs = append(xs, tensor.New(chans, 8, 8))                             // all zero
		batch := tensor.Stack(xs)
		for _, name := range muls {
			eng := q.WithMultiplier(axmult.MustLookup(name))
			want := eng.WithReferenceKernel().LogitsBatch(batch)
			got := eng.LogitsBatch(batch)
			assertSameLogits(t, fmt.Sprintf("sparse/%s/%s", net.Name, name), want, got)
		}
	}
}

// TestTiledKernelParityApproxDense covers the ApproxDense path (dense
// stages on the active multiplier's table) against the reference dense
// kernel for a sample of structurally diverse designs.
func TestTiledKernelParityApproxDense(t *testing.T) {
	onEachKernel(t, parityApproxDense)
}

func parityApproxDense(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 300), Options{ApproxDense: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.Stack(parityBatch(1, 6, 301))
	for _, name := range []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_L40", "mul8u_JQQ", "mul8u_QJD", "mul8u_FTA"} {
		eng := q.WithMultiplier(axmult.MustLookup(name))
		want := eng.WithReferenceKernel().LogitsBatch(batch)
		got := eng.LogitsBatch(batch)
		assertSameLogits(t, "approx-dense/"+name, want, got)
	}
}

// TestTiledKernelParityNoZeroPoint covers the ablation epilogue.
func TestTiledKernelParityNoZeroPoint(t *testing.T) {
	onEachKernel(t, parityNoZeroPoint)
}

func parityNoZeroPoint(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 310), Options{NoZeroPointCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.Stack(parityBatch(1, 4, 311))
	eng := q.WithMultiplier(axmult.MustLookup("mul8u_17KS"))
	assertSameLogits(t, "no-zp",
		eng.WithReferenceKernel().LogitsBatch(batch), eng.LogitsBatch(batch))
}

// TestConcurrentBatchedWorkersRace hammers one shared Network with
// batched inference from many concurrent callers — the
// pooled-workspace contract under the race detector (CI runs the whole
// suite with -race).
func TestConcurrentBatchedWorkersRace(t *testing.T) {
	net := parityNets()[0]
	q, err := Compile(net, parityBatch(1, 12, 330), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_L40"))
	batch := tensor.Stack(parityBatch(1, 9, 331))
	want := q.LogitsBatch(batch)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				got := q.LogitsBatch(batch)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Error("concurrent LogitsBatch diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

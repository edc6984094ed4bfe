package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// sameBits fails unless got and want are bit-for-bit equal (so +0 and
// -0, or two NaN payloads, count as different).
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: tiled %v (%#08x) != reference %v (%#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// spiky fills data with values in [-1,1) where every fifth element is
// exactly zero, so kernels see exact-zero weights, zero and negative
// activations, and zero and negative output gradients.
func spiky(data []float32, rng *rand.Rand) {
	for i := range data {
		if rng.Intn(5) == 0 {
			data[i] = 0
		} else {
			data[i] = rng.Float32()*2 - 1
		}
	}
}

// zeroSomeWeights sets every seventh conv and dense weight to exactly
// zero, the case the reference kernels skip.
func zeroSomeWeights(net *nn.Network) {
	for _, p := range net.Params() {
		for i := 0; i < len(p.W); i += 7 {
			p.W[i] = 0
		}
	}
}

// TestFloatTiledParity pins the lane GEMM's microkernel to a scalar
// loop of the same sums over every lane tail, and the conv layers to
// the reference kernels bit for bit: forward outputs, input gradients,
// and weight and bias gradients, on every shape the model builders
// produce and on edge shapes, for batches and single samples. It runs
// on the microkernel this CPU selects (the AVX2 kernel where the CPU
// has it) and, on AVX2 hosts, once more with the Go microkernel forced
// ("go").
func TestFloatTiledParity(t *testing.T) {
	floatTiledParity(t)
	if nn.FloatGEMM() == "avx2" {
		t.Run("go", func(t *testing.T) {
			defer nn.ForceGoTile()()
			floatTiledParity(t)
		})
	}
}

// convShape is one Conv2D configuration on an h x w input.
type convShape struct{ inC, outC, k, stride, pad, h, w int }

func floatTiledParity(t *testing.T) {
	t.Run("microkernel", gemmLanesParity)

	t.Run("layers", func(t *testing.T) {
		shapes := []convShape{
			{1, 6, 5, 1, 2, 28, 28},  // LeNet-5 conv1, digits
			{6, 16, 5, 1, 0, 14, 14}, // LeNet-5 conv2, digits
			{16, 120, 5, 1, 0, 5, 5}, // LeNet-5 conv3, digits: P = 1
			{3, 6, 5, 1, 2, 32, 32},  // LeNet-5 conv1, 3x32x32
			{16, 120, 5, 1, 0, 6, 6}, // LeNet-5 conv3, 3x32x32
			{3, 32, 3, 1, 1, 32, 32}, // AlexNet conv1
			{96, 64, 3, 1, 1, 8, 8},  // AlexNet conv4
			{2, 5, 3, 2, 0, 7, 7},    // stride 2, OutC and P odd
			{3, 7, 3, 2, 1, 9, 8},    // stride 2, pad 1, non-square
			{2, 3, 5, 2, 2, 6, 5},    // stride 2, pad 2, edge-clipped patches
			{4, 9, 4, 1, 0, 4, 4},    // P = 1, OutC = 9
			{1, 1, 1, 1, 0, 3, 3},    // 1x1 kernel, one channel
			{5, 4, 3, 3, 2, 5, 5},    // stride 3 with pad 2
			{3, 11, 2, 1, 1, 1, 1},   // input smaller than the kernel
			{8, 13, 3, 1, 1, 3, 3},   // OutC = 13 (4k+1 rows)
			{6, 16, 5, 1, 0, 5, 6},   // P = 2
			{4, 5, 3, 1, 0, 8, 8},    // P = 36: dy transposed two samples at a time, last chunk partial at n = 3
			{3, 6, 3, 1, 0, 3, 5},    // P = 3
			{2, 5, 3, 1, 0, 3, 7},    // P = 5
			{4, 9, 2, 1, 0, 2, 8},    // P = 7
			{2, 5, 3, 1, 1, 5, 5},    // P = 25: a 9-lane tail after one 16-lane block
			{3, 4, 3, 1, 1, 4, 3},    // P = 12: lanes span the batch
			{1, 6, 1, 1, 0, 5, 5},    // k = 1 forward, one input-gradient row
		}
		for _, sh := range shapes {
			for _, n := range []int{0, 1, 3, 6} { // 0: unbatched sample
				convParity(t, sh, n, spiky, spiky)
			}
		}
	})

	// Signed zeros and infinities in the input and the output gradient.
	// No weight is zero here: the reference skips zero weights, which
	// against an infinite input would skip a NaN product.
	t.Run("specials", func(t *testing.T) {
		nonzero := func(data []float32, rng *rand.Rand) {
			for i := range data {
				for data[i] == 0 {
					data[i] = rng.Float32()*2 - 1
				}
			}
		}
		specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}
		special := func(data []float32, rng *rand.Rand) {
			for i := range data {
				if r := rng.Intn(40); r < len(specials) {
					data[i] = specials[r]
				} else {
					data[i] = rng.Float32()*2 - 1
				}
			}
		}
		for _, sh := range []convShape{
			{1, 6, 5, 1, 2, 28, 28},
			{16, 120, 5, 1, 0, 5, 5},
			{2, 5, 3, 1, 1, 5, 5},
			{3, 7, 3, 2, 1, 9, 8},
		} {
			for _, n := range []int{0, 3} {
				convParity(t, sh, n, nonzero, special)
			}
		}
	})

	t.Run("models", func(t *testing.T) {
		nets := []struct {
			net   *nn.Network
			shape []int
		}{
			{models.LeNet5(1, 28, 28, 10, 1), []int{1, 28, 28}},
			{models.LeNet5(3, 32, 32, 10, 2), []int{3, 32, 32}},
			{models.AlexNet(3, 32, 32, 10, 3), []int{3, 32, 32}},
			{models.FFNN(28*28, 10, 4), []int{28 * 28}},
		}
		for _, tc := range nets {
			t.Run(fmt.Sprintf("%s_%v", tc.net.Name, tc.shape), func(t *testing.T) {
				zeroSomeWeights(tc.net)
				ref := nn.RefNetwork(tc.net)
				rng := rand.New(rand.NewSource(5))
				// n = 1 is a batch of one against the scalar calls.
				for _, n := range []int{1, 3} {
					xs := make([]*tensor.T, n)
					labels := make([]int, n)
					for r := range xs {
						xs[r] = tensor.New(tc.shape...)
						spiky(xs[r].Data, rng)
						labels[r] = rng.Intn(10)
					}
					batch := tensor.Stack(xs)

					sameBits(t, "LogitsBatch", tc.net.LogitsBatch(batch).Data, ref.LogitsBatch(batch).Data)
					losses, grad := tc.net.LossGradBatch(batch, labels)
					refLosses, refGrad := ref.LossGradBatch(batch, labels)
					sameBits(t, "LossGradBatch loss", losses, refLosses)
					sameBits(t, "LossGradBatch grad", grad.Data, refGrad.Data)

					// Batch rows against scalar calls, tiled against reference.
					for r, x := range xs {
						sameBits(t, fmt.Sprintf("Logits row %d", r), tc.net.Logits(x), ref.LogitsBatch(batch).Row(r).Data)
						_, g := tc.net.LossGrad(x, labels[r])
						sameBits(t, fmt.Sprintf("LossGrad row %d", r), g.Data, refGrad.Row(r).Data)
					}

					// Weight gradients through the training path.
					tc.net.ZeroGrads()
					ref.ZeroGrads()
					for r, x := range xs {
						l, lRef := tc.net.AccumGrad(x, labels[r]), ref.AccumGrad(x, labels[r])
						sameBits(t, "AccumGrad loss", []float32{l}, []float32{lRef})
					}
					ps, refPs := tc.net.Params(), ref.Params()
					for i := range ps {
						sameBits(t, fmt.Sprintf("param %d (%s) gradient", i, ps[i].Name), ps[i].G, refPs[i].G)
					}
				}
			})
		}
	})
}

// gemmLanesParity checks GemmLanes against a scalar loop of its sums,
// each reduced in ascending q from +0 with the product rounded before
// the add, then the bias added: row counts 1..9 (the copy mode under
// four rows, and overlapping last blocks), reduction lengths 1, 3 and
// 25, lane counts 1..40 (every tail of the 16- and 8-lane blocks) and
// across the 256-lane strip and 512-lane call boundaries, both operand
// layouts of the conv layers, and a nil or set bias. Lanes past n and
// the gaps between rows must keep their old contents.
func gemmLanesParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sentinel := float32(math.Copysign(0, -1))
	lanes := []int{255, 256, 257, 511, 512, 513, 600}
	for n := 1; n <= 40; n++ {
		lanes = append(lanes, n)
	}
	for _, m := range []int{1, 2, 3, 4, 5, 7, 9} {
		for _, k := range []int{1, 3, 25} {
			for _, n := range lanes {
				ld := n + 3 // row strides wider than the lanes
				a := make([]float32, m*k)
				b := make([]float32, (k-1)*ld+n)
				bias := make([]float32, m)
				spiky(a, rng)
				spiky(b, rng)
				spiky(bias, rng)
				// Forward reads row r of a at r*k (aRow k, aStep 1), the
				// input gradient at r (aRow 1, aStep m).
				for _, layout := range [][2]int{{k, 1}, {1, m}} {
					for _, bb := range [][]float32{nil, bias} {
						c := make([]float32, (m-1)*ld+n+3)
						for i := range c {
							c[i] = sentinel
						}
						nn.GemmLanes(c, ld, a, layout[0], layout[1], b, ld, bb, m, k, n)
						for r := 0; r < m; r++ {
							for j := 0; j < ld && r*ld+j < len(c); j++ {
								want := sentinel
								if j < n {
									want = 0
									for q := 0; q < k; q++ {
										want += float32(a[r*layout[0]+q*layout[1]] * b[q*ld+j])
									}
									if bb != nil {
										want += bb[r]
									}
								}
								if got := c[r*ld+j]; math.Float32bits(got) != math.Float32bits(want) {
									t.Fatalf("m%d k%d n%d layout %v bias %t: c[%d][%d] = %v, want %v", m, k, n, layout, bb != nil, r, j, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// convParity runs one Conv2D shape on a batch of n samples (0: one
// unbatched sample) through the tiled and the reference kernels and
// compares outputs and gradients bit for bit over two training passes.
// fillW fills the weights; fill fills the input and the output
// gradients (the biases are spiky).
func convParity(t *testing.T, sh convShape, n int, fillW, fill func([]float32, *rand.Rand)) {
	name := fmt.Sprintf("in%dx%dx%d_out%d_k%d_s%d_p%d_n%d", sh.inC, sh.h, sh.w, sh.outC, sh.k, sh.stride, sh.pad, n)
	t.Run(name, func(t *testing.T) {
		rng := rand.New(rand.NewSource(int64(sh.inC*1000 + sh.outC*10 + n)))
		tiled := nn.NewConv2D(sh.inC, sh.outC, sh.k, sh.stride, sh.pad, rng)
		fillW(tiled.W, rng)
		spiky(tiled.B, rng)
		ref := tiled.CloneDetached().(*nn.Conv2D)

		xShape := []int{sh.inC, sh.h, sh.w}
		if n > 0 {
			xShape = append([]int{n}, xShape...)
		}
		x := tensor.New(xShape...)
		fill(x.Data, rng)

		// Run the backward pass twice, so weight gradients
		// accumulate over a second pass too.
		for pass := 0; pass < 2; pass++ {
			tst, rst := nn.TrainingState(), nn.TrainingState()
			y := tiled.Forward(x, tst)
			yRef := nn.RefConv(ref).Forward(x, rst)
			sameBits(t, "forward", y.Data, yRef.Data)

			dy := tensor.New(y.Shape...)
			fill(dy.Data, rng)
			dx := tiled.Backward(dy, tst)
			dxRef := nn.RefConv(ref).Backward(dy, rst)
			sameBits(t, "input gradient", dx.Data, dxRef.Data)
			sameBits(t, "weight gradient", tiled.GW, ref.GW)
			sameBits(t, "bias gradient", tiled.GB, ref.GB)
		}
	})
}

// BenchmarkFloatTiledVsSeed measures the float craft path's unit of
// work — one LossGradBatch (forward plus input gradient) — through the
// reference conv kernels (seed) and the tiled ones (tiled), on the
// active GEMM path: LeNet-5 on a batch of 6 digits-shaped inputs (the
// Fig. 4 source model), and AlexNet on a batch of 2 3x32x32 inputs
// (the Fig. 7 source model). cmd/axbench gates the "paired" and
// "alexnet-paired" sub-benchmarks' interleaved cost ratios against
// BENCH_axnn.json, so a tile chosen for one model cannot regress the
// other unseen; TestFloatTiledParity pins the two paths to identical
// bytes.
func BenchmarkFloatTiledVsSeed(b *testing.B) {
	net, batch, labels := benchNet(models.LeNet5(1, 28, 28, 10, 7), []int{1, 28, 28}, 6)
	ref := nn.RefNetwork(net)
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.LossGradBatch(batch, labels)
		}
	})
	b.Run("tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.LossGradBatch(batch, labels)
		}
	})
	floatPaired(b, net, ref, batch, labels)
}

// BenchmarkFloatGoVsSeed is BenchmarkFloatTiledVsSeed's paired ratios
// with the Go microkernel forced, which is what a host without AVX2
// runs. It is not gated: cmd/axbench's gate runs only the TiledVsSeed
// benchmarks.
func BenchmarkFloatGoVsSeed(b *testing.B) {
	defer nn.ForceGoTile()()
	net, batch, labels := benchNet(models.LeNet5(1, 28, 28, 10, 7), []int{1, 28, 28}, 6)
	floatPaired(b, net, nn.RefNetwork(net), batch, labels)
}

// floatPaired runs the "paired" (LeNet-5 net against its reference
// copy ref on batch) and "alexnet-paired" sub-benchmarks.
func floatPaired(b *testing.B, net, ref *nn.Network, batch *tensor.T, labels []int) {
	// One tiled LossGradBatch takes ~2 ms, close to scheduler noise on
	// a shared runner: a round runs five, so its tiled side takes
	// ~10 ms or more.
	b.Run("paired", func(b *testing.B) {
		pairedRel(b, 1,
			repeat(5, func() { ref.LossGradBatch(batch, labels) }),
			repeat(5, func() { net.LossGradBatch(batch, labels) }))
	})
	// An AlexNet round takes ~0.1 s on the seed side, so a short
	// -benchtime runs only a few: take at least 9 for the median.
	alex, alexBatch, alexLabels := benchNet(models.AlexNet(3, 32, 32, 10, 7), []int{3, 32, 32}, 2)
	alexRef := nn.RefNetwork(alex)
	b.Run("alexnet-paired", func(b *testing.B) {
		pairedRel(b, 9,
			func() { alexRef.LossGradBatch(alexBatch, alexLabels) },
			func() { alex.LossGradBatch(alexBatch, alexLabels) })
	})
}

// repeat returns a func that calls f n times.
func repeat(n int, f func()) func() {
	return func() {
		for range n {
			f()
		}
	}
}

// benchNet returns net with a batch of n inputs of the given sample
// shape, uniform in [0,1), and labels 0..n-1.
func benchNet(net *nn.Network, shape []int, n int) (*nn.Network, *tensor.T, []int) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]*tensor.T, n)
	labels := make([]int, n)
	for r := range xs {
		xs[r] = tensor.New(shape...)
		for i := range xs[r].Data {
			xs[r].Data[i] = rng.Float32()
		}
		labels[r] = r
	}
	return net, tensor.Stack(xs), labels
}

// pairedRel times ref and opt back to back in every round and reports
// the median per-round opt/ref cost ratio as a "paired-rel" metric
// (plus the reciprocal speedup), the load-robust estimator cmd/axbench
// gates on. It runs b.N rounds, or minRounds if that is more. Same
// pattern as the root package's kernel benchmarks.
func pairedRel(b *testing.B, minRounds int, ref, opt func()) {
	ref()
	opt()
	rounds := max(b.N, minRounds)
	rels := make([]float64, 0, rounds)
	b.ResetTimer()
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		ref()
		dRef := time.Since(t0)
		t1 := time.Now()
		opt()
		dOpt := time.Since(t1)
		rels = append(rels, float64(dOpt)/float64(dRef))
	}
	b.StopTimer()
	sort.Float64s(rels)
	med := rels[len(rels)/2]
	if n := len(rels); n%2 == 0 {
		med = (rels[n/2-1] + rels[n/2]) / 2
	}
	b.ReportMetric(med, "paired-rel")
	b.ReportMetric(1/med, "x-speedup")
}

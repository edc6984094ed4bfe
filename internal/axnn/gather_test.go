package axnn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/axmult"
	"repro/internal/modelzoo"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestGatherKernel pins each microkernel (on AVX2 hosts the gather
// kernel, then the Go loop as "go"; elsewhere the Go loop) and its
// column sums to a scalar walk of the same sums, for every registered
// multiplier: lane counts 1..40 (every tail length, with and without
// full blocks), tap counts 1, 3 and 25, blocks of two and four
// channels, the single-channel mode (wRow and ldAcc 0), and all-255
// codes and weights, whose product is the table's last entry and whose
// 4-byte read ends in the spare entry past it.
func TestGatherKernel(t *testing.T) {
	onEachKernel(t, gatherKernel)
}

func gatherKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	for _, name := range axmult.Names() {
		lutT := axmult.MustLookup(name).TableT()
		for _, kk := range []int{1, 3, 25} {
			for n := 1; n <= 40; n++ {
				for _, fill := range []string{"random", "corner"} {
					ld := n + 3 // a row stride wider than the lanes
					cols := make([]uint8, (kk-1)*ld+n+gatherPad)
					w := make([]uint8, 4*kk)
					if fill == "random" {
						for i := range cols {
							cols[i] = uint8(rng.Intn(256))
						}
						for i := range w {
							w[i] = uint8(rng.Intn(256))
						}
					} else {
						for i := range cols {
							cols[i] = 255
						}
						for i := range w {
							w[i] = 255
						}
					}
					label := fmt.Sprintf("%s/kk%d/n%d/%s", name, kk, n, fill)
					want := func(r, j int) int32 {
						var s int32
						for q := 0; q < kk; q++ {
							s += int32(lutT[int(w[r*kk+q])<<8|int(cols[q*ld+j])])
						}
						return s
					}
					for _, rows := range []int{2, 4} {
						acc := make([]int32, 4*ld)
						lutGather(acc, ld, cols, ld, w, kk, lutT, kk, n, rows)
						for r := 0; r < 4; r++ {
							for j := 0; j < ld; j++ {
								if r < rows && j < n && acc[r*ld+j] != want(r, j) {
									t.Fatalf("%s/rows%d: acc[%d][%d] = %d, want %d", label, rows, r, j, acc[r*ld+j], want(r, j))
								}
								if (r >= rows || j >= n) && acc[r*ld+j] != 0 {
									t.Fatalf("%s/rows%d: acc[%d][%d] past the block written", label, rows, r, j)
								}
							}
						}
					}
					one := make([]int32, ld)
					lutGather(one, 0, cols, ld, w[kk:], 0, lutT, kk, n, 2)
					for j := 0; j < n; j++ {
						if one[j] != want(1, j) {
							t.Fatalf("%s: single channel lane %d = %d, want %d", label, j, one[j], want(1, j))
						}
					}
					if name != "mul8u_1JFF" {
						continue
					}
					sum := colSums(make([]int32, n), cols[:(kk-1)*n+n+gatherPad], kk)
					for j := range sum {
						var s int32
						for q := 0; q < kk; q++ {
							s += int32(cols[q*n+j])
						}
						if sum[j] != s {
							t.Fatalf("%s: column sum %d = %d, want %d", label, j, sum[j], s)
						}
					}
				}
			}
		}
	}
}

// tailNet is a conv stack whose lane counts cover every tail: conv1
// has 9 output pixels per sample (batches 1..17 give n*9 mod 16 = 0..15),
// five channels (a block plus an overlapping one) and padding 0; conv2
// has a 1x1 output and six channels, so its lanes are the batch's
// samples, from one lane up to two blocks of eight.
func tailNet() *nn.Network {
	rng := rand.New(rand.NewSource(121))
	return &nn.Network{
		Name: "parity-tails",
		Layers: []nn.Layer{
			nn.NewConv2D(2, 5, 3, 1, 0, rng),
			&nn.ReLU{},
			nn.NewConv2D(5, 6, 3, 1, 0, rng),
			&nn.Flatten{},
			nn.NewDense(6, 3, rng),
		},
	}
}

// narrowNet is tailNet's shape with one and two output channels: the
// single-channel copy mode and a lone two-channel block.
func narrowNet() *nn.Network {
	rng := rand.New(rand.NewSource(125))
	return &nn.Network{
		Name: "parity-narrow",
		Layers: []nn.Layer{
			nn.NewConv2D(2, 1, 3, 1, 0, rng),
			&nn.ReLU{},
			nn.NewConv2D(1, 2, 3, 1, 0, rng),
			&nn.Flatten{},
			nn.NewDense(2, 3, rng),
		},
	}
}

// fgmLikeBatch returns n 2x5x5 inputs shaped like FGM output: a mostly
// zero digit-like plane plus a +-eps step on every pixel, so almost no
// code sits at the zero-point.
func fgmLikeBatch(n int, seed int64) []*tensor.T {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(2, 5, 5)
		for j := range x.Data {
			if rng.Intn(4) == 0 {
				x.Data[j] = rng.Float32()
			}
			if rng.Intn(2) == 0 {
				x.Data[j] += 0.1
			} else {
				x.Data[j] -= 0.1
			}
		}
		xs[i] = x
	}
	return xs
}

// TestTiledKernelParityLaneTails runs batches of 1..17 FGM-like inputs
// through tailNet and narrowNet on every registered multiplier, on each
// kernel path, against the reference kernel, and checks each
// batch-of-one row against scalar Logits.
func TestTiledKernelParityLaneTails(t *testing.T) {
	onEachKernel(t, func(t *testing.T) {
		for _, net := range []*nn.Network{tailNet(), narrowNet()} {
			q, err := Compile(net, fgmLikeBatch(12, 122), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range axmult.Names() {
				eng := q.WithMultiplier(axmult.MustLookup(name))
				for n := 1; n <= 17; n++ {
					xs := fgmLikeBatch(n, int64(123+n))
					batch := tensor.Stack(xs)
					want := eng.WithReferenceKernel().LogitsBatch(batch)
					label := fmt.Sprintf("%s/%s/n%d", net.Name, name, n)
					assertSameLogits(t, label, want, eng.LogitsBatch(batch))
					if n == 1 {
						assertSameLogits(t, label+"/scalar", want, tensor.FromSlice(eng.Logits(xs[0]), 1, 3))
					}
				}
			}
		}
	})
}

// TestRequantStairs pins the integer requantizer to the float formula
// it replaces: for every conv channel of the parity, tail and reduced
// width networks, the code at every edge t and at t-1, and at random
// reachable t, equals Quantize(float32(t)*scale+bias), mapped through
// the folded ReLU's table where one is folded. The tables depend only
// on the quantization parameters, so one network covers every
// multiplier; the parity tests run them on all of them.
func TestRequantStairs(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	type build struct {
		net   *nn.Network
		calib []*tensor.T
		bits  uint
	}
	nets := parityNets()
	builds := []build{
		{nets[0], parityBatch(1, 12, 100), 0},
		{nets[1], parityBatch(2, 12, 101), 0},
		{nets[0], parityBatch(1, 12, 102), 4},
		{tailNet(), fgmLikeBatch(12, 122), 0},
		{narrowNet(), fgmLikeBatch(12, 122), 0},
	}
	folded := 0
	for _, b := range builds {
		q, err := Compile(b.net, b.calib, Options{Bits: b.bits})
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range q.layers {
			c, ok := l.(*qConv)
			if !ok {
				continue
			}
			if c.stairs == nil {
				t.Fatalf("%s bits %d layer %d: no integer requantizer", b.net.Name, b.bits, li)
			}
			var post []uint8
			if r, ok := q.layers[li+1].(*qReLU); ok && r.folded {
				post = r.lut
				folded++
			}
			kk := int32(c.inC * c.k * c.k)
			za := int32(c.inQP.Zero)
			for oc := range c.stairs {
				s := &c.stairs[oc]
				scale := c.inQP.Scale * c.wQP[oc].Scale
				bias := c.bias[oc]
				direct := func(x int32) uint8 {
					v := c.outQP.Quantize(float32(x)*scale + bias)
					if post != nil {
						v = post[v]
					}
					return v
				}
				check := func(x int32) {
					if got, want := s.at(x), direct(x); got != want {
						t.Fatalf("%s bits %d layer %d channel %d: t=%d gives %d, want %d", b.net.Name, b.bits, li, oc, x, got, want)
					}
				}
				for _, e := range s.edge {
					if e != noEdge {
						check(e)
						check(e - 1)
					}
				}
				zw := int32(c.wQP[oc].Zero)
				fixed := kk*za*zw - za*c.wSum[oc]
				lo, hi := fixed-zw*kk*255, fixed+kk*65535
				for i := 0; i < 2000; i++ {
					check(lo + int32(rng.Int63n(int64(hi)-int64(lo)+1)))
				}
				check(lo)
				check(hi)
			}
		}
	}
	if folded == 0 {
		t.Fatal("no ReLU was folded into a conv")
	}
}

// TestRequantFallsBack checks the cases that keep Quantize: the
// zero-point ablation, and a channel whose scale is not positive.
func TestRequantFallsBack(t *testing.T) {
	q, err := Compile(parityNets()[0], parityBatch(1, 12, 100), Options{NoZeroPointCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range q.layers {
		if c, ok := l.(*qConv); ok && c.stairs != nil {
			t.Fatal("the zero-point ablation built an integer requantizer")
		}
		if r, ok := l.(*qReLU); ok && r.folded {
			t.Fatal("the zero-point ablation folded a ReLU")
		}
	}
	q, err = Compile(parityNets()[0], parityBatch(1, 12, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := q.layers[0].(*qConv)
	c2 := *c
	c2.wQP = append([]quant.Params(nil), c.wQP...)
	c2.wQP[1].Scale = -c2.wQP[1].Scale
	if c2.buildStairs(nil) != nil {
		t.Fatal("a negative scale built an integer requantizer")
	}
}

// BenchmarkGoKernelVsSeed measures what a host without AVX2 gives up:
// the trained LeNet-5 (lenet5-digits) on mul8u_17KS scores a batch of
// 64 test digits through the Go microkernel (forced) and through the
// reference kernel, rounds interleaved, and reports the median per-round
// cost ratio (paired-rel). "clean" scores the digits as they are, mostly
// zero-point codes; "fgm" moves every pixel by +-0.1, as an FGM-linf
// step does. cmd/axbench does not gate it.
func BenchmarkGoKernelVsSeed(b *testing.B) {
	defer forceGoKernel()()
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	q, err := Compile(m.Net, m.Test.Inputs(32), Options{})
	if err != nil {
		b.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_17KS"))
	ref := q.WithReferenceKernel()
	clean := tensor.Stack(m.Test.X[:64])
	fgm := clean.Clone()
	rng := rand.New(rand.NewSource(126))
	for i := range fgm.Data {
		fgm.Data[i] += float32(2*rng.Intn(2)-1) * 0.1
	}
	fgm.Clamp(0, 1)
	for _, tc := range []struct {
		name  string
		batch *tensor.T
	}{{"clean", clean}, {"fgm", fgm}} {
		b.Run(tc.name, func(b *testing.B) {
			pairedRel(b, 5,
				func() { ref.LogitsBatch(tc.batch) },
				func() { q.LogitsBatch(tc.batch) })
		})
	}
}

// pairedRel times ref and opt back to back in every round and reports
// the median per-round opt/ref cost ratio as a "paired-rel" metric
// (plus the reciprocal speedup). It runs b.N rounds, or minRounds if
// that is more. Same pattern as the root package's kernel benchmarks.
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
		rels = append(rels, float64(time.Since(t1))/float64(dRef))
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

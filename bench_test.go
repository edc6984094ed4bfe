// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the experiment index E1-E15 in README.md), plus design
// ablations and micro-benchmarks of the substrates.
//
// Each figure bench regenerates the corresponding robustness grid with
// the same rows (perturbation budgets) and columns (multipliers /
// victims) the paper reports and prints it once; the benchmark metric
// is wall-clock per full grid. Absolute accuracies differ from the
// paper (synthetic data, substituted multiplier silicon — see
// README.md); the qualitative shape is the reproduction target.
//
// Run everything:
//
//	go test -bench=. -benchmem -timeout 2h .
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/errmodel"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/modelzoo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Paper sweep: the ten perturbation budgets of Figs. 4-8.
var paperEps = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1, 1.5, 2}

// benchSamples returns the evaluation-set size for the grid benches
// (override with AXREPRO_BENCH_N).
func benchSamples(def int) int {
	if s := os.Getenv("AXREPRO_BENCH_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

var printOnce sync.Map

// emit prints the grid the first time a benchmark runs it.
func emit(b *testing.B, key string, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s", key, text)
	}
}

// mnistVictims builds the M1..M9 AxDNN columns for LeNet-5.
func mnistVictims(b *testing.B) (*modelzoo.Model, []core.Victim) {
	b.Helper()
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.BuildAxVictims(m.Net, m.Test, axmult.MNISTSet(), axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m, v
}

// cifarVictims builds the M1..M8 AxDNN columns for AlexNet.
func cifarVictims(b *testing.B) (*modelzoo.Model, []core.Victim) {
	b.Helper()
	m, err := modelzoo.Get("alexnet-objects")
	if err != nil {
		b.Fatal(err)
	}
	v, err := core.BuildAxVictims(m.Net, m.Test, axmult.CIFARSet(), axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m, v
}

// benchCache is the one cache every paper benchmark sweeps through, so
// cells shared across benchmarks and iterations (the eps=0 clean row,
// a repeated grid) are crafted once per process.
var benchCache = core.NewCache(core.CacheConfig{})

// sweep runs one single-grid Algorithm 1 sweep through benchCache.
func sweep(b *testing.B, src *nn.Network, victims []core.Victim, set *dataset.Set, atk attack.Attack, eps []float64, opts core.Options) *core.Grid {
	b.Helper()
	g, err := benchCache.RobustnessGrid(context.Background(), src, victims, set, atk, eps, opts)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// gridBench is the shared driver for the Figs. 4-7 panels.
func gridBench(b *testing.B, key, attackName string, cifar bool, samples int) {
	var m *modelzoo.Model
	var victims []core.Victim
	if cifar {
		m, victims = cifarVictims(b)
	} else {
		m, victims = mnistVictims(b)
	}
	atk := attack.ByName(attackName)
	opts := core.Options{Samples: benchSamples(samples), Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sweep(b, m.Net, victims, m.Test, atk, paperEps, opts)
		loss, victim, eps := g.MaxAccuracyLoss()
		b.ReportMetric(loss, "max-acc-loss-%")
		emit(b, key, fmt.Sprintf("%s-> max accuracy loss %.0f%% on %s at eps=%g\n", g, loss, victim, eps))
	}
}

// ---- E1: Fig. 1 motivational study ----

func BenchmarkFig1_Motivation(b *testing.B) {
	lenet, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	ffnn, err := modelzoo.Get("ffnn-digits")
	if err != nil {
		b.Fatal(err)
	}
	lv, err := core.BuildAxVictims(lenet.Net, lenet.Test, []string{"mul8u_1JFF", "mul8u_17KS"}, axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fv, err := core.BuildAxVictims(ffnn.Net, ffnn.Test, []string{"mul8u_1JFF", "mul8u_L1G"}, axnn.Options{ApproxDense: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Samples: benchSamples(150), Seed: 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out string
		for _, atk := range []attack.Attack{attack.ByName("PGD-linf"), attack.ByName("CR-l2")} {
			gl := sweep(b, lenet.Net, lv, lenet.Test, atk, paperEps, opts)
			gf := sweep(b, ffnn.Net, fv, ffnn.Test, atk, paperEps, opts)
			out += fmt.Sprintf("[LeNet-5] %s[FFNN] %s", gl, gf)
		}
		emit(b, "Fig1 motivational study (PGD-linf defensive, CR-l2 not)", out)
	}
}

// ---- E2-E5: Fig. 4 — BIM and FGM grids on LeNet-5 ----

func BenchmarkFig4a_BIMLinf(b *testing.B) {
	gridBench(b, "Fig4a BIM-linf LeNet-5", "BIM-linf", false, 150)
}
func BenchmarkFig4b_BIML2(b *testing.B) { gridBench(b, "Fig4b BIM-l2 LeNet-5", "BIM-l2", false, 150) }
func BenchmarkFig4c_FGMLinf(b *testing.B) {
	gridBench(b, "Fig4c FGM-linf LeNet-5", "FGM-linf", false, 150)
}
func BenchmarkFig4d_FGML2(b *testing.B) { gridBench(b, "Fig4d FGM-l2 LeNet-5", "FGM-l2", false, 150) }

// ---- E6-E9: Fig. 5 — PGD and RAU grids on LeNet-5 ----

func BenchmarkFig5a_PGDL2(b *testing.B) { gridBench(b, "Fig5a PGD-l2 LeNet-5", "PGD-l2", false, 150) }
func BenchmarkFig5b_PGDLinf(b *testing.B) {
	gridBench(b, "Fig5b PGD-linf LeNet-5", "PGD-linf", false, 150)
}
func BenchmarkFig5c_RAUL2(b *testing.B) { gridBench(b, "Fig5c RAU-l2 LeNet-5", "RAU-l2", false, 150) }
func BenchmarkFig5d_RAULinf(b *testing.B) {
	gridBench(b, "Fig5d RAU-linf LeNet-5", "RAU-linf", false, 150)
}

// ---- E10-E11: Fig. 6 — CR and RAG grids on LeNet-5 ----

func BenchmarkFig6a_CRL2(b *testing.B)  { gridBench(b, "Fig6a CR-l2 LeNet-5", "CR-l2", false, 150) }
func BenchmarkFig6b_RAGL2(b *testing.B) { gridBench(b, "Fig6b RAG-l2 LeNet-5", "RAG-l2", false, 150) }

// ---- E12: Fig. 7 — decision-based grids on AlexNet / CIFAR-like ----

func BenchmarkFig7a_CRL2(b *testing.B)  { gridBench(b, "Fig7a CR-l2 AlexNet", "CR-l2", true, 80) }
func BenchmarkFig7b_RAGL2(b *testing.B) { gridBench(b, "Fig7b RAG-l2 AlexNet", "RAG-l2", true, 80) }
func BenchmarkFig7c_RAUL2(b *testing.B) { gridBench(b, "Fig7c RAU-l2 AlexNet", "RAU-l2", true, 80) }
func BenchmarkFig7d_RAULinf(b *testing.B) {
	gridBench(b, "Fig7d RAU-linf AlexNet", "RAU-linf", true, 80)
}

// ---- E13: Fig. 8 — quantized vs float accurate LeNet-5, all attacks ----

func BenchmarkFig8_Quantization(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	victims, err := core.QuantPair(m.Net, m.Test, 8)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Samples: benchSamples(150), Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out string
		var qWins, total int
		for _, atk := range attack.TableI() {
			g := sweep(b, m.Net, victims, m.Test, atk, paperEps, opts)
			out += g.String()
			q, qok := g.Column(victims[1].Name)
			f, fok := g.Column("float")
			if !qok || !fok {
				b.Fatalf("grid missing quantized/float column: %v", g.Victims)
			}
			for j := range q {
				total++
				if q[j] >= f[j] {
					qWins++
				}
			}
		}
		b.ReportMetric(100*float64(qWins)/float64(total), "q8-wins-%")
		emit(b, "Fig8 quantized (q8) vs float LeNet-5, all 10 attacks", out+
			fmt.Sprintf("-> quantized >= float on %d/%d (attack, eps) points\n", qWins, total))
	}
}

// ---- E14: Table II — transferability ----

func BenchmarkTable2_Transferability(b *testing.B) {
	type pair struct{ lenet, alex, label string }
	families := []pair{
		{"lenet5-digits32", "alexnet-digits", "digits"},
		{"lenet5-objects", "alexnet-objects", "objects"},
	}
	// Each (source, victim) cell is a victim_model spec on one engine
	// over benchCache.
	eng := experiment.New(experiment.WithCache(benchCache))
	samples := benchSamples(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ""
		for _, fam := range families {
			// Victims use their dataset-appropriate multiplier (the
			// paper selects multipliers per error resilience): 17KS for
			// LeNet-5, KEM for the deeper AlexNet.
			mult := map[string]string{fam.lenet: "mul8u_17KS", fam.alex: "mul8u_KEM"}
			for _, cell := range []struct{ src, vic, tag string }{
				{fam.lenet, fam.lenet, "AccL5  -> AxL5 "},
				{fam.lenet, fam.alex, "AccL5  -> AxAlx"},
				{fam.alex, fam.lenet, "AccAlx -> AxL5 "},
				{fam.alex, fam.alex, "AccAlx -> AxAlx"},
			} {
				rep, err := eng.Run(context.Background(), &experiment.Spec{
					Model:       cell.src,
					VictimModel: cell.vic,
					Multipliers: []string{mult[cell.vic]},
					Attacks:     []string{"BIM-linf"},
					Eps:         []float64{0, 0.05},
					Samples:     samples,
					Seed:        17,
				})
				if err != nil {
					b.Fatal(err)
				}
				g := rep.Grids[0]
				out += fmt.Sprintf("%s [%s]: %3.0f/%-3.0f\n", cell.tag, fam.label, g.Acc[0][0], g.Acc[1][0])
			}
		}
		emit(b, "Table II transferability (BIM-linf eps=0.05, X/Y = before/after)", out)
	}
}

// ---- E15: multiplier error metrics (the Section IV-B MAE table) ----

func BenchmarkMultiplierMetrics(b *testing.B) {
	names := append(append([]string{}, axmult.MNISTSet()...), axmult.CIFARSet()[1:]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-14s %9s %9s %9s %10s\n", "multiplier", "MAE%", "WCE%", "MRE%", "bias")
		for _, n := range names {
			m, err := errmodel.MeasureNamed(n)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("%-14s %9.4f %9.3f %9.3f %+10.1f\n", m.Name, m.MAEP, m.WCEP, m.MRE, m.Bias)
		}
		emit(b, "Multiplier error metrics (MAE table)", out)
	}
}

// BenchmarkEnergyRobustnessTradeoff quantifies the paper's premise:
// the energy saved by each approximate design against the robustness
// it costs under the strongest attack at a small budget.
func BenchmarkEnergyRobustnessTradeoff(b *testing.B) {
	m, victims := mnistVictims(b)
	opts := core.Options{Samples: benchSamples(150), Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sweep(b, m.Net, victims, m.Test, attack.ByName("BIM-linf"), []float64{0, 0.05}, opts)
		acc := map[string]float64{}
		for vi, name := range g.Victims {
			acc[name] = g.Acc[1][vi]
		}
		rows, err := energy.Tradeoff(axmult.MNISTSet(), acc)
		if err != nil {
			b.Fatal(err)
		}
		out := ""
		for _, r := range rows {
			out += r.String() + " (robustness at BIM-linf eps=0.05)\n"
		}
		emit(b, "Energy vs robustness trade-off (LeNet-5, M1..M9)", out)
	}
}

// ---- Ablations (design choices documented in README.md) ----

// BenchmarkAblationZeroPoint shows the exact zero-point correction is
// load-bearing: without it, even the exact-multiplier engine collapses.
func BenchmarkAblationZeroPoint(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	withZP, err := core.BuildAxVictims(m.Net, m.Test, []string{"mul8u_1JFF"}, axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	withoutZP, err := core.BuildAxVictims(m.Net, m.Test, []string{"mul8u_1JFF"}, axnn.Options{NoZeroPointCorrection: true})
	if err != nil {
		b.Fatal(err)
	}
	victims := []core.Victim{
		{Name: "zp-corrected", Factory: withZP[0].Factory},
		{Name: "no-zp", Factory: withoutZP[0].Factory},
	}
	opts := core.Options{Samples: benchSamples(150), Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sweep(b, m.Net, victims, m.Test, attack.ByName("FGM-linf"), []float64{0}, opts)
		emit(b, "Ablation: zero-point correction", g.String())
	}
}

// BenchmarkAblationQuantBits sweeps the Qlevel (8/6/4 bits).
func BenchmarkAblationQuantBits(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	var victims []core.Victim
	for _, bits := range []uint{8, 6, 4} {
		v, err := core.BuildAxVictims(m.Net, m.Test, []string{"mul8u_1JFF"}, axnn.Options{Bits: bits})
		if err != nil {
			b.Fatal(err)
		}
		victims = append(victims, core.Victim{Name: fmt.Sprintf("q%d", bits), Factory: v[0].Factory})
	}
	opts := core.Options{Samples: benchSamples(150), Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sweep(b, m.Net, victims, m.Test, attack.ByName("PGD-linf"), []float64{0, 0.1, 0.2}, opts)
		emit(b, "Ablation: quantization bit width", g.String())
	}
}

// BenchmarkAblationDenseApprox measures the extra damage of routing
// dense layers through the approximate multiplier too.
func BenchmarkAblationDenseApprox(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	convOnly, err := core.BuildAxVictims(m.Net, m.Test, []string{"mul8u_FTA"}, axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	convDense, err := core.BuildAxVictims(m.Net, m.Test, []string{"mul8u_FTA"}, axnn.Options{ApproxDense: true})
	if err != nil {
		b.Fatal(err)
	}
	victims := []core.Victim{
		{Name: "conv-only", Factory: convOnly[0].Factory},
		{Name: "conv+dense", Factory: convDense[0].Factory},
	}
	opts := core.Options{Samples: benchSamples(150), Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sweep(b, m.Net, victims, m.Test, attack.ByName("BIM-linf"), []float64{0, 0.1}, opts)
		emit(b, "Ablation: approximate dense layers (FTA)", g.String())
	}
}

// ---- Micro-benchmarks of the substrates ----

func BenchmarkMulLUT(b *testing.B) {
	lut := axmult.MustLookup("mul8u_JV3")
	var s uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += uint32(lut.Mul(uint8(i), uint8(i>>8)))
	}
	_ = s
}

func BenchmarkMulCircuitArray(b *testing.B) {
	m, err := axmult.New("mul8u_1JFF")
	if err != nil {
		b.Fatal(err)
	}
	var s uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += uint32(m.Mul(uint8(i), uint8(i>>8)))
	}
	_ = s
}

func BenchmarkMulCircuitMitchell(b *testing.B) {
	m, err := axmult.New("mul8u_JV3")
	if err != nil {
		b.Fatal(err)
	}
	var s uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += uint32(m.Mul(uint8(i), uint8(i>>8)))
	}
	_ = s
}

// BenchmarkAblationLUTvsCircuit quantifies why the engine compiles
// circuits to LUTs (TFApprox's design choice).
func BenchmarkAblationLUTvsCircuit(b *testing.B) {
	circuit, err := axmult.New("mul8u_1JFF") // gate-level array model
	if err != nil {
		b.Fatal(err)
	}
	// Lookup, not Compile: benchmarks share the process-wide cached
	// table instead of re-deriving 64 KB per run.
	lut := axmult.MustLookup("mul8u_1JFF")
	b.Run("circuit", func(b *testing.B) {
		var s uint32
		for i := 0; i < b.N; i++ {
			s += uint32(circuit.Mul(uint8(i), uint8(i>>8)))
		}
		_ = s
	})
	b.Run("lut", func(b *testing.B) {
		var s uint32
		for i := 0; i < b.N; i++ {
			s += uint32(lut.Mul(uint8(i), uint8(i>>8)))
		}
		_ = s
	})
}

func BenchmarkQuantizedInferenceLeNet(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	q, err := axnn.Compile(m.Net, m.Test.Inputs(32), axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_17KS"))
	x := m.Test.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Logits(x)
	}
}

func BenchmarkQuantizedInferenceAlexNet(b *testing.B) {
	m, err := modelzoo.Get("alexnet-objects")
	if err != nil {
		b.Fatal(err)
	}
	q, err := axnn.Compile(m.Net, m.Test.Inputs(32), axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_QJD"))
	x := m.Test.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Logits(x)
	}
}

func BenchmarkFloatInferenceLeNet(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	x := m.Test.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.Logits(x)
	}
}

func BenchmarkAttackPGDLinf(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	atk := attack.ByName("PGD-linf")
	rng := rand.New(rand.NewSource(1))
	x, y := m.Test.X[0], m.Test.Y[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := atk.Perturb(m.Net, x, y, 0.1, rng)
		if adv.Len() != x.Len() {
			b.Fatal("bad adv")
		}
	}
}

// BenchmarkBatchVsScalar tracks the throughput (samples/sec) of
// batched vs per-sample inference for the LeNet-5 float and AxDNN
// paths — the speedup the batched, stateless engine exists to deliver.
func BenchmarkBatchVsScalar(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	q, err := axnn.Compile(m.Net, m.Test.Inputs(32), axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_17KS"))
	const batchN = 64
	xs := m.Test.X[:batchN]
	batch := tensor.Stack(xs)
	throughput := func(b *testing.B) {
		b.ReportMetric(float64(batchN*b.N)/b.Elapsed().Seconds(), "samples/sec")
	}
	b.Run("float/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				m.Net.Logits(x)
			}
		}
		throughput(b)
	})
	b.Run("float/batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Net.LogitsBatch(batch)
		}
		throughput(b)
	})
	b.Run("axdnn/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				q.Logits(x)
			}
		}
		throughput(b)
	})
	b.Run("axdnn/batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.LogitsBatch(batch)
		}
		throughput(b)
	})
}

// BenchmarkLUTVsDirect isolates the LUT-dispatch design choice on a
// GEMM-shaped workload (the ROADMAP's "fuse approximate multipliers
// into LUTs" item): one conv inner product in three forms — virtual
// Mul dispatch into the gate-level circuit, activation-major flat-table
// loads (the seed kernel's layout, 512-byte stride per weight row),
// and weight-major transposed-table rows (the tiled kernel's layout).
func BenchmarkLUTVsDirect(b *testing.B) {
	const kk, p = 150, 576 // LeNet-5 conv2 geometry: 6*5*5 taps, 24*24 pixels
	circuit, err := axmult.New("mul8u_JV3")
	if err != nil {
		b.Fatal(err)
	}
	lut := axmult.MustLookup("mul8u_JV3")
	table, tableT := lut.Table(), lut.TableT()
	rng := rand.New(rand.NewSource(42))
	cols := make([]uint8, kk*p)
	for i := range cols {
		cols[i] = uint8(rng.Intn(256))
	}
	weights := make([]uint8, kk)
	for i := range weights {
		weights[i] = uint8(rng.Intn(256))
	}
	acc := make([]int32, p)
	b.Run("circuit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(acc)
			for q := 0; q < kk; q++ {
				w := weights[q]
				col := cols[q*p : (q+1)*p]
				for j, a := range col {
					acc[j] += int32(circuit.Mul(a, w))
				}
			}
		}
		b.ReportMetric(float64(kk*p), "macs/op")
	})
	b.Run("lut-flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(acc)
			for q := 0; q < kk; q++ {
				w := uint32(weights[q])
				col := cols[q*p : (q+1)*p]
				for j, a := range col {
					acc[j] += int32(table[uint32(a)<<8|w])
				}
			}
		}
		b.ReportMetric(float64(kk*p), "macs/op")
	})
	b.Run("lut-weight-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(acc)
			for q := 0; q < kk; q++ {
				row := (*[256]uint16)(tableT[int(weights[q])<<8:])
				col := cols[q*p : (q+1)*p]
				for j, a := range col {
					acc[j] += int32(row[a])
				}
			}
		}
		b.ReportMetric(float64(kk*p), "macs/op")
	})
	// The interleaved variant cmd/axbench actually gates: one circuit
	// round and one weight-major LUT round per iteration, milliseconds
	// apart, so the reported cost ratio is immune to ambient load
	// shifting between the separately-timed windows above.
	b.Run("paired", func(b *testing.B) {
		// One LUT inner product takes ~0.1 ms, far inside scheduler
		// noise: a round runs 100 of each, so its LUT side takes
		// ~10 ms.
		pairedRel(b, 5,
			repeat(100, func() {
				clear(acc)
				for q := 0; q < kk; q++ {
					w := weights[q]
					col := cols[q*p : (q+1)*p]
					for j, a := range col {
						acc[j] += int32(circuit.Mul(a, w))
					}
				}
			}),
			repeat(100, func() {
				clear(acc)
				for q := 0; q < kk; q++ {
					row := (*[256]uint16)(tableT[int(weights[q])<<8:])
					col := cols[q*p : (q+1)*p]
					for j, a := range col {
						acc[j] += int32(row[a])
					}
				}
			}))
	})
}

// BenchmarkTiledVsSeed is the kernel regression gate: LeNet-5 batched
// inference through the retained pre-tiling kernel (seed) versus the
// tiled weight-major kernel (tiled). cmd/axbench gates the "paired"
// sub-benchmark's interleaved cost ratio against the committed
// BENCH_axnn.json baseline, so the comparison is machine-independent
// (both kernels run in the same process on the same batch, rounds
// interleaved). Parity
// between the two kernels is pinned bit-for-bit by internal/axnn's
// parity suite.
func BenchmarkTiledVsSeed(b *testing.B) {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		b.Fatal(err)
	}
	q, err := axnn.Compile(m.Net, m.Test.Inputs(32), axnn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_17KS"))
	const batchN = 64
	batch := tensor.Stack(m.Test.X[:batchN])
	throughput := func(b *testing.B) {
		b.ReportMetric(float64(batchN*b.N)/b.Elapsed().Seconds(), "samples/sec")
	}
	b.Run("seed", func(b *testing.B) {
		eng := q.WithReferenceKernel()
		for i := 0; i < b.N; i++ {
			eng.LogitsBatch(batch)
		}
		throughput(b)
	})
	b.Run("tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.LogitsBatch(batch)
		}
		throughput(b)
	})
	// The interleaved variant cmd/axbench actually gates: each
	// iteration runs one seed batch and one tiled batch back to back,
	// so every per-round ratio compares the kernels under the same
	// ambient load. The separately-timed windows above report absolute
	// throughput but their quotient is hostage to load shifting in the
	// seconds between them on a shared runner.
	b.Run("paired", func(b *testing.B) {
		// The whole 64-sample batch per round keeps the tiled side at
		// ~10 ms or more, well above scheduler noise; at least five
		// rounds let the median settle within a short -benchtime.
		eng := q.WithReferenceKernel()
		pairedRel(b, 5,
			func() { eng.LogitsBatch(batch) },
			func() { q.LogitsBatch(batch) })
	})
	// The victim-sweep workload's predict stage (the paper's Fig. 4c
	// shape): 8 samples crafted with FGM-linf and 8 with FGM-l2 at
	// eps 0.1, each batch scored by all nine M1-M9 designs per round.
	// FGM moves most background pixels off the zero-point code, so
	// these batches are dense where clean digits are mostly zero.
	b.Run("fgm-paired", func(b *testing.B) {
		ctx := context.Background()
		cache := core.NewCache(core.CacheConfig{})
		set := m.Test.Slice(8)
		var advs []*tensor.T
		for _, name := range []string{"FGM-linf", "FGM-l2"} {
			adv, _, err := cache.CraftedBatch(ctx, core.NewCraftTarget(m.Net, set, attack.ByName(name)), 0.1, core.Options{Seed: 1, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			advs = append(advs, adv)
		}
		var seed, prod []*axnn.Network
		for _, name := range axmult.MNISTSet() {
			eng := q.WithMultiplier(axmult.MustLookup(name))
			seed = append(seed, eng.WithReferenceKernel())
			prod = append(prod, eng)
		}
		sweep := func(engs []*axnn.Network) func() {
			return func() {
				for _, eng := range engs {
					for _, adv := range advs {
						eng.LogitsBatch(adv)
					}
				}
			}
		}
		pairedRel(b, 5, sweep(seed), sweep(prod))
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

// pairedRel times ref and opt back to back in every benchmark
// iteration and reports the median per-round opt/ref cost ratio as a
// "paired-rel" metric (plus the reciprocal speedup for human eyes).
// Pairing at round granularity is the only load-robust estimator on a
// busy single-core runner: ambient load flaps faster than the gap
// between separately-timed benchmark windows, but not faster than two
// adjacent rounds. It runs b.N rounds, or minRounds if that is more.
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

// BenchmarkWarmStoreCraft measures the persistent cache tier's restart
// win: each iteration stands up a cold process — a fresh in-memory
// cache — over a warm disk store and replays a small PGD sweep, so
// ns/op is the disk-served cost of cells that would otherwise re-run
// gradient ascent. The cache Stats deltas ride along as cache-*
// metrics; cmd/axbench -update records them (ungated) in
// BENCH_axnn.json so the warm-store hit rate is part of the committed
// perf trajectory:
//
//	go test -run '^$' -bench 'WarmStoreCraft' -benchtime 1x -count=3 . |
//	go run ./cmd/axbench -update BENCH_axnn.json
func BenchmarkWarmStoreCraft(b *testing.B) {
	tr := dataset.Digits(600, 61)
	test := dataset.Digits(64, 62)
	net := models.FFNN(28*28, 10, 63)
	net.Name = "bench-warm-store"
	train.Fit(net, tr, train.Config{Epochs: 1, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 2})

	s, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	atk := attack.ByName("PGD-linf")
	epsSweep := []float64{0.05, 0.1, 0.2}
	opts := core.Options{Seed: 11}
	ctx := context.Background()

	// Seed the store: the one crafting run a warm fleet amortises.
	seeded := core.NewCache(core.CacheConfig{Disk: s})
	for _, eps := range epsSweep {
		if _, _, err := seeded.CraftedBatch(ctx, core.NewCraftTarget(net, test, atk), eps, opts); err != nil {
			b.Fatal(err)
		}
	}

	var hits, misses, errs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := core.NewCache(core.CacheConfig{Disk: s})
		for _, eps := range epsSweep {
			if _, hit, err := cold.CraftedBatch(ctx, core.NewCraftTarget(net, test, atk), eps, opts); err != nil || !hit {
				b.Fatalf("warm store did not serve eps=%g: hit=%v err=%v", eps, hit, err)
			}
		}
		st := cold.Stats()
		hits += st.DiskCraftHits
		misses += st.DiskCraftMisses
		errs += st.DiskErrors
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(hits)/n, "cache-disk-hits")
	b.ReportMetric(float64(misses)/n, "cache-disk-misses")
	b.ReportMetric(float64(errs)/n, "cache-errors")
}

// BenchmarkTracedVsUntraced pins the observability layer's overhead:
// the same small suite runs untraced (ref) and traced — recorder in
// context, every span and histogram live — interleaved round by round
// via pairedRel. The paired-rel ratio is the whole-suite cost of
// tracing and should sit at ~1.0; it is recorded ungated in
// BENCH_axnn.json so drift is visible in the committed trajectory
// without a load-sensitive hard gate:
//
//	go test -run '^$' -bench 'TracedVsUntraced' -benchtime 1x -count=3 . |
//	go run ./cmd/axbench -update BENCH_axnn.json
func BenchmarkTracedVsUntraced(b *testing.B) {
	tr := dataset.Digits(600, 61)
	test := dataset.Digits(64, 62)
	net := models.FFNN(28*28, 10, 63)
	net.Name = "bench-traced"
	train.Fit(net, tr, train.Config{Epochs: 1, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 2})
	zoo := &modelzoo.Model{Net: net, Train: tr, Test: test, CleanAcc: 100 * train.Accuracy(net, test, 0)}
	src := func(ctx context.Context, name string) (*modelzoo.Model, error) { return zoo, nil }

	spec := &experiment.Spec{
		Name:        "bench-traced",
		Model:       "bench-traced",
		Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
		Attacks:     []string{"FGM-linf", "PGD-linf", "BIM-linf"},
		Eps:         []float64{0, 0.05, 0.1, 0.2},
		Samples:     24,
		Seed:        7,
		Workers:     1,
	}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Fresh engines per round keep both variants crafting from scratch,
	// so the ratio compares full pipelines, not cache lookups.
	runSuite := func(ctx context.Context) {
		eng := experiment.New(experiment.WithModelSource(src))
		if _, err := eng.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
	pairedRel(b, 1,
		func() { runSuite(ctx) },
		func() {
			rec := obs.NewRecorder(obs.DefaultSpanCap)
			sctx, span := obs.Start(obs.WithRecorder(ctx, rec), "suite")
			runSuite(sctx)
			span.End()
			if len(rec.Spans()) == 0 {
				b.Fatal("traced variant recorded no spans")
			}
		})
}

// BenchmarkPlanExecutorVsSerial measures the cell-graph scheduler's
// win: the full 14-attack x 4-eps suite on the parallel local executor
// (4 workers) against the serial path, interleaved round by round via
// pairedRel so the ratio is load-robust. Fresh engines (and so fresh
// caches) per run keep every round crafting from scratch; Spec.Workers
// is pinned to 1 so within-cell crafting parallelism does not mask the
// scheduler's contribution. The paired-rel entry is recorded ungated
// in BENCH_axnn.json — the parallel ratio depends on the host's core
// count:
//
//	go test -run '^$' -bench 'PlanExecutorVsSerial' -benchtime 1x -count=3 . |
//	go run ./cmd/axbench -update BENCH_axnn.json
func BenchmarkPlanExecutorVsSerial(b *testing.B) {
	tr := dataset.Digits(600, 61)
	test := dataset.Digits(64, 62)
	net := models.FFNN(28*28, 10, 63)
	net.Name = "bench-plan-exec"
	train.Fit(net, tr, train.Config{Epochs: 1, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 2})
	zoo := &modelzoo.Model{Net: net, Train: tr, Test: test, CleanAcc: 100 * train.Accuracy(net, test, 0)}
	src := func(ctx context.Context, name string) (*modelzoo.Model, error) { return zoo, nil }

	spec := &experiment.Spec{
		Name:        "bench-plan-exec",
		Model:       "bench-plan-exec",
		Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
		Attacks:     attack.Names(),
		Eps:         []float64{0, 0.05, 0.1, 0.2},
		Samples:     24,
		Seed:        7,
		Workers:     1,
	}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	runSuite := func(parallel int) {
		eng := experiment.New(
			experiment.WithModelSource(src),
			experiment.WithExecutor(&experiment.LocalExecutor{Parallel: parallel}),
		)
		if _, err := eng.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
	pairedRel(b, 1,
		func() { runSuite(1) },
		func() { runSuite(4) })
}

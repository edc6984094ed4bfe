package defense

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/tensor"
)

// The defense benchmarks feed BENCH_defense.json in CI: one data point
// per release for the cost of hardening, of serving through the
// randomized ensemble, and of adaptive (EOT) crafting, so the defense
// subsystem's perf trajectory is tracked like the inference engine's.

func BenchmarkAdvTrainEpoch(b *testing.B) {
	base := fixture(b)
	cfg := AdvTrainConfig{Attack: "PGD-linf", Eps: 0.1, Ratio: 0.25, Epochs: 1, Seed: 3, Workers: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := base.Net.DeepClone()
		if _, err := AdvTrain(context.Background(), net, base.Train.Slice(256), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsembleLogitsBatch(b *testing.B) {
	base := fixture(b)
	e, err := BuildEnsemble(core.NewCache(core.CacheConfig{}), base.Net, base.Test, testPool, axnn.Options{ApproxDense: true}, 7)
	if err != nil {
		b.Fatal(err)
	}
	xs := tensor.Stack(base.Test.X[:64])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LogitsBatch(xs)
	}
}

func BenchmarkEOTCraftBatch(b *testing.B) {
	base := fixture(b)
	e, err := BuildEnsemble(core.NewCache(core.CacheConfig{}), base.Net, base.Test, testPool, axnn.Options{ApproxDense: true}, 7)
	if err != nil {
		b.Fatal(err)
	}
	eot := attack.NewEOT(e, attack.Linf, 4)
	n := 16
	xs := tensor.Stack(base.Test.X[:n])
	rngs := make([]*rand.Rand, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range rngs {
			rngs[r] = rand.New(rand.NewSource(int64(r) * 1_000_003))
		}
		eot.PerturbBatch(base.Net, xs, base.Test.Y[:n], 0.1, rngs)
	}
}

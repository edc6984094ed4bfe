package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/attack"
	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/train"
)

// TestEndToEndPipeline runs the paper's whole methodology on a small
// scale with no cached state: train an accurate DNN, quantize it into
// AxDNNs, craft attacks against the float model, and evaluate the
// robustness grid. It pins the cross-module invariants the experiments
// rely on.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	trainSet := dataset.Digits(2000, 61)
	testSet := dataset.Digits(240, 62)
	net := models.LeNet5(1, 28, 28, 10, 63)
	net.Name = "e2e-lenet"
	train.Fit(net, trainSet, train.Config{Epochs: 3, Batch: 32, LR: 0.05, Momentum: 0.9, LRDecay: 0.7, Seed: 1})

	floatAcc := train.Accuracy(net, testSet, 0)
	if floatAcc < 0.9 {
		t.Fatalf("float training failed: %.2f", floatAcc)
	}

	mults := []string{"mul8u_1JFF", "mul8u_17KS", "mul8u_L40"}
	victims, err := core.BuildAxVictims(net, testSet, mults, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}

	eps := []float64{0, 0.1, 0.25}
	grid, err := core.NewCache(core.CacheConfig{}).RobustnessGrid(context.Background(), net, victims, testSet,
		attack.ByName("BIM-linf"), eps, core.Options{Samples: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Clean row: quantized accurate within a few points of float.
	if diff := 100*floatAcc - grid.Acc[0][0]; diff > 6 || diff < -6 {
		t.Fatalf("quantized clean accuracy %f too far from float %f", grid.Acc[0][0], 100*floatAcc)
	}
	// Attack monotonicity per victim (BIM at these budgets is strictly
	// damaging on this model).
	for vi := range mults {
		if grid.Acc[1][vi] > grid.Acc[0][vi]+2 || grid.Acc[2][vi] > grid.Acc[1][vi]+2 {
			t.Fatalf("victim %s not degraded by growing budgets: %v %v %v",
				mults[vi], grid.Acc[0][vi], grid.Acc[1][vi], grid.Acc[2][vi])
		}
	}
	// At a solid budget the attack must do real damage somewhere.
	if loss, _, _ := grid.MaxAccuracyLoss(); loss < 20 {
		t.Fatalf("BIM-linf at eps=0.25 lost only %.0f%%", loss)
	}
}

// TestAlgorithmOneAmortization verifies the harness's core soundness
// property: adversarial inputs are independent of the victim, so two
// victims see identical perturbed inputs (same seed) and the accurate
// victim's robustness equals a direct evaluation.
func TestAlgorithmOneAmortization(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test in -short mode")
	}
	trainSet := dataset.Digits(800, 71)
	testSet := dataset.Digits(150, 72)
	net := models.FFNN(28*28, 10, 73)
	net.Name = "e2e-ffnn"
	train.Fit(net, trainSet, train.Config{Epochs: 2, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 3})

	q, err := axnn.Compile(net, testSet.Inputs(32), axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Separate caches: the second sweep re-crafts, so equal columns
	// show the crafted inputs do not depend on the victim set.
	ctx := context.Background()
	single, err := core.NewCache(core.CacheConfig{}).RobustnessGrid(ctx, net,
		[]core.Victim{core.NewVictim("q", q)},
		testSet, attack.ByName("FGM-linf"), []float64{0.1}, core.Options{Samples: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	double, err := core.NewCache(core.CacheConfig{}).RobustnessGrid(ctx, net,
		[]core.Victim{core.NewVictim("other", q.WithMultiplier(axmult.MustLookup("mul8u_JV3"))), core.NewVictim("q", q)},
		testSet, attack.ByName("FGM-linf"), []float64{0.1}, core.Options{Samples: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if single.Acc[0][0] != double.Acc[0][1] {
		t.Fatalf("victim set changed the crafted attacks: %f vs %f", single.Acc[0][0], double.Acc[0][1])
	}
}

func TestVersionString(t *testing.T) {
	if repro.Version == "" {
		t.Fatal("Version must identify the reproduction snapshot")
	}
}

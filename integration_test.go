package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/modelzoo"
	"repro/internal/nn"
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
	eps := []float64{0, 0.1, 0.25}
	rep, err := experiment.New(experiment.WithModelSource(serve(net, testSet))).Run(context.Background(), &experiment.Spec{
		Model:       net.Name,
		Multipliers: mults,
		Attacks:     []string{"BIM-linf"},
		Eps:         eps,
		Samples:     120,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := rep.Grids[0]

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

	// Separate engines, so separate caches: the second sweep re-crafts,
	// so equal columns show the crafted inputs do not depend on the
	// victim set.
	run := func(mults ...string) *core.Grid {
		rep, err := experiment.New(experiment.WithModelSource(serve(net, testSet))).Run(context.Background(), &experiment.Spec{
			Model:       net.Name,
			Multipliers: mults,
			Attacks:     []string{"FGM-linf"},
			Eps:         []float64{0.1},
			Samples:     100,
			Seed:        4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Grids[0]
	}
	single := run("mul8u_1JFF")
	double := run("mul8u_JV3", "mul8u_1JFF")
	if single.Acc[0][0] != double.Acc[0][1] {
		t.Fatalf("victim set changed the crafted attacks: %f vs %f", single.Acc[0][0], double.Acc[0][1])
	}
}

// serve is a model source holding one in-test network, so the engine
// runs it without the model zoo.
func serve(net *nn.Network, test *dataset.Set) func(context.Context, string) (*modelzoo.Model, error) {
	return func(_ context.Context, name string) (*modelzoo.Model, error) {
		if name != net.Name {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		return &modelzoo.Model{Net: net, Test: test}, nil
	}
}

func TestVersionString(t *testing.T) {
	if repro.Version == "" {
		t.Fatal("Version must identify the reproduction snapshot")
	}
}

// Quickstart: build an AxDNN from a trained network, attack it, and
// measure robustness — the library's core loop in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/errmodel"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/tensor"
)

func main() {
	// 1. A trained accurate LeNet-5 (trains once, then loads from cache).
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accurate LeNet-5: %.1f%% clean accuracy\n", m.CleanAcc)

	// 2. Inspect an approximate multiplier from the EvoApprox-style
	// registry.
	met, err := errmodel.MeasureNamed("mul8u_JV3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mul8u_JV3: MAE %.3f%%, worst case %.2f%%, bias %.0f\n", met.MAEP, met.WCEP, met.Bias)

	// 3. Compile the 8-bit quantized AxDNN and swap multipliers freely.
	q, err := axnn.Compile(m.Net, m.Test.Inputs(64), axnn.Options{Bits: 8})
	if err != nil {
		log.Fatal(err)
	}
	axdnn := q.WithMultiplier(axmult.MustLookup("mul8u_JV3"))
	x := m.Test.X[0].Unsqueeze() // models score batches: this one holds sample 0
	fmt.Printf("sample 0: label %d, quantized-accurate says %d, AxDNN(JV3) says %d\n",
		m.Test.Y[0], tensor.ArgMaxRows(q.LogitsBatch(x))[0], tensor.ArgMaxRows(axdnn.LogitsBatch(x))[0])

	// 4. Run Algorithm 1 as a one-attack spec: craft PGD-linf examples
	// on the accurate float model, replay them on both victims (the
	// exact design is the quantized accurate network above).
	rep, err := experiment.New().Run(context.Background(), &experiment.Spec{
		Model:       "lenet5-digits",
		Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
		Attacks:     []string{"PGD-linf"},
		Eps:         []float64{0, 0.05, 0.1, 0.2},
		Samples:     150,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	grid := rep.Grids[0]
	grid.Victims = []string{"q8-accurate", "AxDNN-JV3"}
	fmt.Println()
	fmt.Print(grid)
	loss, victim, eps := grid.MaxAccuracyLoss()
	fmt.Printf("\nbiggest accuracy loss: %.0f%% (%s at eps=%g) — approximation is no universal defense\n",
		loss, victim, eps)
}

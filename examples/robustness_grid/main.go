// Robustness grid: a compact version of the paper's Figs. 4-6 — one
// gradient-based and one decision-based attack swept over all nine
// MNIST-set multipliers (M1..M9) on LeNet-5.
//
//	go run ./examples/robustness_grid
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/axmult"
	"repro/internal/errmodel"
	"repro/internal/experiment"
)

func main() {
	fmt.Println("multiplier error profiles (the paper's M1..M9):")
	for i, name := range axmult.MNISTSet() {
		met, err := errmodel.MeasureNamed(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  M%d %-12s MAE%%=%.4f bias=%+8.1f\n", i+1, name, met.MAEP, met.Bias)
	}
	fmt.Println()

	spec := &experiment.Spec{
		Model:       "lenet5-digits",
		Multipliers: []string{"mnist"},
		Attacks:     []string{"BIM-linf", "RAU-linf"},
		Eps:         []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1, 1.5, 2},
		Samples:     200,
		Seed:        7,
	}
	// One attack at a time on one engine, so each grid prints as soon
	// as it is scored.
	eng := experiment.New()
	for _, atk := range spec.Attacks {
		one := *spec
		one.Attacks = []string{atk}
		rep, err := eng.Run(context.Background(), &one)
		if err != nil {
			log.Fatal(err)
		}
		g := rep.Grids[0]
		fmt.Print(g)
		loss, victim, at := g.MaxAccuracyLoss()
		fmt.Printf("-> max loss %.0f%% on %s at eps=%g\n\n", loss, victim, at)
	}
}

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

	"repro/internal/attack"
	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/modelzoo"
)

func main() {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multiplier error profiles (the paper's M1..M9):")
	for i, name := range axmult.MNISTSet() {
		met, err := errmodel.MeasureNamed(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  M%d %-12s MAE%%=%.4f bias=%+8.1f\n", i+1, name, met.MAEP, met.Bias)
	}
	fmt.Println()

	victims, err := core.BuildAxVictims(m.Net, m.Test, axmult.MNISTSet(), axnn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	eps := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1, 1.5, 2}
	cache := core.NewCache(core.CacheConfig{})
	opts := core.Options{Samples: 200, Seed: 7}
	for _, name := range []string{"BIM-linf", "RAU-linf"} {
		g, err := cache.RobustnessGrid(context.Background(), m.Net, victims, m.Test, attack.ByName(name), eps, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(g)
		loss, victim, at := g.MaxAccuracyLoss()
		fmt.Printf("-> max loss %.0f%% on %s at eps=%g\n\n", loss, victim, at)
	}
}

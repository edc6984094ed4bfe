// Defensive approximation, revisited (Fig. 1 of the paper).
//
// Guesmi et al. (ASPLOS 2021) proposed approximate multipliers as a
// structural defense against adversarial attacks. This example
// reproduces the paper's motivational study: the same two AxDNNs
// (FFNN and LeNet-5 with approximate multipliers) look *defensive*
// under an linf PGD attack — their curves sit above the accurate
// model's — yet lose that advantage under an l2 contrast-reduction
// attack, where the approximate FFNN falls below its accurate twin.
//
//	go run ./examples/defensive_approximation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/modelzoo"
)

func main() {
	eps := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1, 1.5, 2}

	// LeNet-5: accurate quantized vs Ax17KS (conv multipliers).
	lenet, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		log.Fatal(err)
	}
	lenetVictims, err := core.BuildAxVictims(lenet.Net, lenet.Test,
		[]string{"mul8u_1JFF", "mul8u_17KS"}, axnn.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// FFNN has no conv layers: approximate the dense products instead
	// (the paper's FFNN study), with the L1G mirror-adder array design.
	ffnn, err := modelzoo.Get("ffnn-digits")
	if err != nil {
		log.Fatal(err)
	}
	ffnnVictims, err := core.BuildAxVictims(ffnn.Net, ffnn.Test,
		[]string{"mul8u_1JFF", "mul8u_L1G"}, axnn.Options{ApproxDense: true})
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	cache := core.NewCache(core.CacheConfig{})
	opts := core.Options{Samples: 200, Seed: 11}
	for _, atk := range []attack.Attack{attack.ByName("PGD-linf"), attack.ByName("CR-l2")} {
		fmt.Printf("=== %s ===\n", atk.Name())
		gl, err := cache.RobustnessGrid(ctx, lenet.Net, lenetVictims, lenet.Test, atk, eps, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[LeNet-5]\n%s", gl)
		gf, err := cache.RobustnessGrid(ctx, ffnn.Net, ffnnVictims, ffnn.Test, atk, eps, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[FFNN]\n%s", gf)
		summarize(gl, "17KS")
		summarize(gf, "L1G")
		fmt.Println()
	}
	fmt.Println("Conclusion: the defensive behaviour is attack-dependent, not universal.")
}

// summarize counts how often the approximate column beats the accurate
// one — the "defensive" budgets.
func summarize(g *core.Grid, ax string) {
	acc, _ := g.Column(g.Victims[0])
	axc, _ := g.Column(g.Victims[1])
	wins := 0
	for i := range acc {
		if axc[i] > acc[i] {
			wins++
		}
	}
	fmt.Printf("-> Ax%s above accurate on %d/%d budgets\n", ax, wins, len(acc))
}

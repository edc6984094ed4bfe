// Defensive approximation, revisited (Fig. 1 of the paper).
//
// Guesmi et al. (ASPLOS 2021) proposed approximate multipliers as a
// structural defense against adversarial attacks. This example
// reproduces the paper's motivational study: the same two AxDNNs
// (FFNN and LeNet-5 with approximate multipliers) look *defensive*
// under an linf PGD attack — their curves sit above the accurate
// model's — yet lose that advantage under an l2 contrast-reduction
// attack, where the approximate FFNN falls below its accurate twin.
// The two suites are the checked-in testdata/specs/fig1-lenet5.json
// (accurate quantized vs Ax17KS in the conv layers) and fig1-ffnn.json
// (FFNN has no conv layers, so the dense products use the L1G
// mirror-adder array design, the paper's FFNN study). Run it from the
// repository root:
//
//	go run ./examples/defensive_approximation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiment"
)

func main() {
	lenet, err := experiment.Load("testdata/specs/fig1-lenet5.json")
	if err != nil {
		log.Fatal(err)
	}
	ffnn, err := experiment.Load("testdata/specs/fig1-ffnn.json")
	if err != nil {
		log.Fatal(err)
	}
	// Both suites run one attack at a time on one engine, so each
	// attack's pair of grids prints as soon as it is scored.
	eng := experiment.New()
	grid := func(spec *experiment.Spec, atk string) *core.Grid {
		one := *spec
		one.Attacks = []string{atk}
		rep, err := eng.Run(context.Background(), &one)
		if err != nil {
			log.Fatal(err)
		}
		return rep.Grids[0]
	}
	for _, atk := range lenet.Attacks {
		gl, gf := grid(lenet, atk), grid(ffnn, atk)
		fmt.Printf("=== %s ===\n", atk)
		fmt.Printf("[LeNet-5]\n%s", gl)
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

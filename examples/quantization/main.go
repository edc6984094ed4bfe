// Quantization vs approximation under attack (Fig. 8 and Section IV-D):
// quantization *improves* adversarial robustness of the accurate DNN,
// while approximate computing pulls in the opposite direction — the two
// act antagonistically.
//
//	go run ./examples/quantization
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiment"
)

func main() {
	// The float network, the quantized accurate DNN (the exact design)
	// and the quantized+approximate victim (Section IV-D's third column).
	eps := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5}
	spec := &experiment.Spec{
		Model:       "lenet5-digits",
		Multipliers: []string{experiment.FloatVictim, "mul8u_1JFF", "mul8u_L40"},
		Attacks:     []string{"PGD-linf", "BIM-linf", "FGM-linf"},
		Eps:         eps,
		Samples:     200,
		Seed:        5,
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
		g.Victims[1] = "q8"
		fmt.Print(g)
		f, _ := g.Column(experiment.FloatVictim)
		q, _ := g.Column("q8")
		a, _ := g.Column("mul8u_L40")
		qHelps, axHurts := 0, 0
		for i := range q {
			if q[i] >= f[i] {
				qHelps++
			}
			if a[i] <= q[i] {
				axHurts++
			}
		}
		fmt.Printf("-> quantization helps on %d/%d budgets; approximation erases the gain on %d/%d\n\n",
			qHelps, len(eps), axHurts, len(eps))
	}
	fmt.Println("Quantization and approximation act antagonistically under attack (A3).")
}

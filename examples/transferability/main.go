// Transferability (Table II): adversarial examples crafted on an
// accurate LeNet-5 transfer to an approximate AlexNet — and vice versa
// — even though the adversary knows neither the victim's architecture
// nor its inexactness. Each (source, victim) cell is one
// experiment.Spec with victim_model set, all run on one engine.
//
//	go run ./examples/transferability
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiment"
)

func main() {
	const eps = 0.05
	eng := experiment.New()

	fmt.Printf("BIM-linf eps=%.2f on the 32x32x3 digit set (X/Y = accuracy before/after)\n\n", eps)
	// Each victim runs its dataset-appropriate multiplier (the paper
	// filters multipliers by error resilience per network).
	const lenet, alex = "lenet5-digits32", "alexnet-digits"
	mult := map[string]string{lenet: "mul8u_17KS", alex: "mul8u_KEM"}
	cells := []struct{ label, source, victim string }{
		{"AccL5  -> AxL5 ", lenet, lenet},
		{"AccL5  -> AxAlx", lenet, alex},
		{"AccAlx -> AxL5 ", alex, lenet},
		{"AccAlx -> AxAlx", alex, alex},
	}
	for _, c := range cells {
		rep, err := eng.Run(context.Background(), &experiment.Spec{
			Model:       c.source,
			VictimModel: c.victim,
			Multipliers: []string{mult[c.victim]},
			Attacks:     []string{"BIM-linf"},
			Eps:         []float64{0, eps},
			Samples:     200,
			Seed:        17,
		})
		if err != nil {
			log.Fatal(err)
		}
		g := rep.Grids[0]
		fmt.Printf("  %s : %3.0f/%-3.0f\n", c.label, g.Acc[0][0], g.Acc[1][0])
	}
	fmt.Println("\nAttacks transfer across both exactness and architecture boundaries (A2).")
}

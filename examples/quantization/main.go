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

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/modelzoo"
)

func main() {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		log.Fatal(err)
	}
	victims, err := core.QuantPair(m.Net, m.Test, 8)
	if err != nil {
		log.Fatal(err)
	}
	// Add the quantized+approximate victim (Section IV-D's third column).
	ax, err := core.BuildAxVictims(m.Net, m.Test, []string{"mul8u_L40"}, axnn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	victims = append(victims, ax...)

	eps := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5}
	cache := core.NewCache(core.CacheConfig{})
	opts := core.Options{Samples: 200, Seed: 5}
	for _, name := range []string{"PGD-linf", "BIM-linf", "FGM-linf"} {
		g, err := cache.RobustnessGrid(context.Background(), m.Net, victims, m.Test, attack.ByName(name), eps, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(g)
		q, _ := g.Column(g.Victims[1])
		f, fok := g.Column("float")
		a, aok := g.Column("mul8u_L40")
		if !fok || !aok {
			log.Fatalf("grid missing expected columns: %v", g.Victims)
		}
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

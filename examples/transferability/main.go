// Transferability (Table II): adversarial examples crafted on an
// accurate LeNet-5 transfer to an approximate AlexNet — and vice versa
// — even though the adversary knows neither the victim's architecture
// nor its inexactness.
//
//	go run ./examples/transferability
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
	atk := attack.ByName("BIM-linf")
	const eps = 0.05
	cache := core.NewCache(core.CacheConfig{})
	opts := core.Options{Samples: 200, Seed: 17}

	lenet, err := modelzoo.Get("lenet5-digits32")
	if err != nil {
		log.Fatal(err)
	}
	alex, err := modelzoo.Get("alexnet-digits")
	if err != nil {
		log.Fatal(err)
	}

	// Each victim runs its dataset-appropriate multiplier (the paper
	// filters multipliers by error resilience per network).
	axLenet, err := core.BuildAxVictims(lenet.Net, lenet.Test, []string{"mul8u_17KS"}, axnn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	axAlex, err := core.BuildAxVictims(alex.Net, alex.Test, []string{"mul8u_KEM"}, axnn.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("BIM-linf eps=%.2f on the 32x32x3 digit set (X/Y = accuracy before/after)\n\n", eps)
	cells := []struct {
		label  string
		source *modelzoo.Model
		victim core.Victim
	}{
		{"AccL5  -> AxL5 ", lenet, axLenet[0]},
		{"AccL5  -> AxAlx", lenet, axAlex[0]},
		{"AccAlx -> AxL5 ", alex, axLenet[0]},
		{"AccAlx -> AxAlx", alex, axAlex[0]},
	}
	for _, c := range cells {
		r, err := cache.Transfer(context.Background(), c.source.Net, c.victim, c.source.Test, atk, eps, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s : %3.0f/%-3.0f\n", c.label, r.CleanAcc, r.AdvAcc)
	}
	fmt.Println("\nAttacks transfer across both exactness and architecture boundaries (A2).")
}

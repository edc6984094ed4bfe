// Energy vs robustness: the paper's premise (approximation saves
// energy) against its finding (approximation is not a defense), in one
// table. For each multiplier of the MNIST set, estimate the relative
// hardware cost and measure robustness under the strongest attack at a
// stealthy budget.
//
//	go run ./examples/energy_tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/nn"
)

func main() {
	m, err := modelzoo.Get("lenet5-digits")
	if err != nil {
		log.Fatal(err)
	}
	const eps = 0.05
	rep, err := experiment.New().Run(context.Background(), &experiment.Spec{
		Model:       "lenet5-digits",
		Multipliers: []string{"mnist"},
		Attacks:     []string{"BIM-linf"},
		Eps:         []float64{0, eps},
		Samples:     200,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := rep.Grids[0]

	macs := lenetMACs(m.Net)
	fmt.Printf("LeNet-5: %d conv MACs + %d dense MACs per inference\n\n", macs.Conv, macs.Dense)
	fmt.Printf("%-14s %8s %8s %10s %12s %16s\n", "design", "energy", "area", "clean %", "robust %", "MAC-energy/inf")
	for vi, name := range g.Victims {
		c, err := energy.Estimate(name)
		if err != nil {
			log.Fatal(err)
		}
		e, err := energy.InferenceEnergy(macs, name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %7.2fx %7.2fx %10.1f %12.1f %16.0f\n",
			name, c.Energy, c.Area, g.Acc[0][vi], g.Acc[1][vi], e)
	}
	fmt.Printf("\nBIM-linf eps=%.2f: energy savings and robustness are uncorrelated —\n", eps)
	fmt.Println("approximation is an efficiency tool, not a defense (the paper's answer A1).")
}

// lenetMACs derives per-inference MAC counts from the trained network's
// actual layer geometry.
func lenetMACs(net *nn.Network) energy.InferenceMACs {
	var layers []energy.LayerGeom
	h, w := 28, 28
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			oh, ow := t.OutSize(h, w)
			layers = append(layers, energy.LayerGeom{
				Kind: "conv", InC: t.InC, OutC: t.OutC, K: t.K, OutH: oh, OutW: ow,
			})
			h, w = oh, ow
		case *nn.AvgPool2D:
			h, w = h/t.K, w/t.K
		case *nn.Dense:
			layers = append(layers, energy.LayerGeom{Kind: "dense", In: t.In, Out: t.Out})
		}
	}
	return energy.CountMACs(layers)
}

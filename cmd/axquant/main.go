// Command axquant reproduces the paper's Fig. 8: adversarial robustness
// of the quantized versus non-quantized accurate LeNet-5 across all ten
// attacks and the full perturbation sweep, plus (with -mult) the
// adversarial quantization-vs-approximation comparison of Section IV-D.
//
// Usage:
//
//	axquant                      # Fig. 8 curves (float vs 8-bit)
//	axquant -bits 4              # different Qlevel
//	axquant -mult mul8u_L40      # add an AxDNN column (Section IV-D)
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/modelzoo"
)

func main() {
	model := flag.String("model", "lenet5-digits", "trained model")
	n := flag.Int("n", 300, "test samples")
	bits := flag.Uint("bits", 8, "quantization level (Qlevel)")
	mult := flag.String("mult", "", "optional approximate multiplier column")
	epsList := flag.String("eps", "0,0.05,0.1,0.15,0.2,0.25,0.5,1,1.5,2", "comma-separated perturbation budgets")
	flag.Parse()

	m, err := modelzoo.Get(*model)
	if err != nil {
		cli.Fail("axquant", err)
	}
	victims, err := core.QuantPair(m.Net, m.Test, *bits)
	if err != nil {
		cli.Fail("axquant", err)
	}
	if *mult != "" {
		ax, err := core.BuildAxVictims(m.Net, m.Test, []string{*mult}, axnn.Options{Bits: *bits})
		if err != nil {
			cli.Fail("axquant", err)
		}
		victims = append(victims, ax...)
	}

	eps, err := cli.ParseEps(*epsList)
	if err != nil {
		cli.Fail("axquant", err)
	}
	ctx := context.Background()
	// One cache across the ten attacks: the eps=0 clean row and its
	// victim predictions are shared by every grid.
	cache := core.NewCache(core.CacheConfig{})
	for _, atk := range attack.TableI() {
		g, err := cache.RobustnessGrid(ctx, m.Net, victims, m.Test, atk, eps, core.Options{Samples: *n, Seed: 5})
		if err != nil {
			cli.Fail("axquant", err)
		}
		fmt.Print(g)
		q, qok := g.Column(victims[1].Name)
		f, fok := g.Column("float")
		if qok && fok {
			var qWins int
			for i := range q {
				if q[i] >= f[i] {
					qWins++
				}
			}
			fmt.Printf("-> quantized >= float on %d/%d budgets\n\n", qWins, len(eps))
		}
	}
}

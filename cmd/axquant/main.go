// Command axquant reproduces the paper's Fig. 8: adversarial robustness
// of the quantized versus non-quantized accurate LeNet-5 across all ten
// attacks and the full perturbation sweep, plus (with -mult) the
// adversarial quantization-vs-approximation comparison of Section IV-D.
// The flags build one experiment.Spec: the float column, the exact
// design's column (the quantized accurate DNN, labelled q<bits>) and
// the optional -mult design. With the default flags the spec is
// testdata/specs/fig8.json, which the package test asserts.
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
	"os"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/experiment"
)

// parseSpec builds the Fig. 8 suite from the command-line arguments.
func parseSpec(args []string) (*experiment.Spec, error) {
	fs := flag.NewFlagSet("axquant", flag.ExitOnError)
	model := fs.String("model", "lenet5-digits", "trained model")
	n := fs.Int("n", 300, "test samples")
	bits := fs.Uint("bits", 8, "quantization level (Qlevel)")
	mult := fs.String("mult", "", "optional approximate multiplier column")
	epsList := fs.String("eps", "0,0.05,0.1,0.15,0.2,0.25,0.5,1,1.5,2", "comma-separated perturbation budgets")
	fs.Parse(args)

	eps, err := cli.ParseEps(*epsList)
	if err != nil {
		return nil, err
	}
	spec := &experiment.Spec{
		Name:        "fig8-" + *model,
		Model:       *model,
		Multipliers: []string{experiment.FloatVictim, "mul8u_1JFF"},
		Bits:        *bits,
		Eps:         eps,
		Samples:     *n,
		Seed:        5,
	}
	if *mult != "" {
		spec.Multipliers = append(spec.Multipliers, *mult)
	}
	for _, atk := range attack.TableI() {
		spec.Attacks = append(spec.Attacks, atk.Name())
	}
	return spec, nil
}

func main() {
	spec, err := parseSpec(os.Args[1:])
	if err != nil {
		cli.Fail("axquant", err)
	}
	// The exact design's column is the quantized accurate DNN; label it
	// with its effective Qlevel (0 and anything above 8 run at 8 bits).
	qbits := spec.Bits
	if qbits == 0 || qbits > 8 {
		qbits = 8
	}
	// One engine, run one attack at a time so each grid prints as soon
	// as it is scored; the eps=0 clean row and its victim predictions
	// are cached once and shared by every grid.
	eng := experiment.New()
	for _, atk := range spec.Attacks {
		one := *spec
		one.Attacks = []string{atk}
		rep, err := eng.Run(context.Background(), &one)
		if err != nil {
			cli.Fail("axquant", err)
		}
		g := rep.Grids[0]
		g.Victims[1] = fmt.Sprintf("q%d", qbits)
		fmt.Print(g)
		f, _ := g.Column(experiment.FloatVictim)
		q, _ := g.Column(g.Victims[1])
		var qWins int
		for i := range q {
			if q[i] >= f[i] {
				qWins++
			}
		}
		fmt.Printf("-> quantized >= float on %d/%d budgets\n\n", qWins, len(spec.Eps))
	}
}

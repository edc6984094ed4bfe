// Command axtransfer reproduces the paper's Table II: transferability
// of adversarial examples crafted on one (accurate) architecture to
// AxDNN victims of the same and the other architecture, on both
// datasets, with BIM-linf at eps = 0.05 by default. -attack swaps in
// any other crafter — including the universal/momentum family
// (UAP, MIFGSM) and restarted PGD — for the same protocol.
//
// Within each dataset both architectures consume the same input
// geometry (28x28 digits are presented as 32x32x3 to both LeNet-5 and
// AlexNet), so a perturbed image crafted on one model replays directly
// on the other — the paper's black-box transfer scenario. Each
// (source, victim) cell is one experiment.Spec with victim_model set,
// all run on a single engine; repeated cells (same source and victim
// test set) replay from the engine cache. Cells with different victim
// models craft afresh: the cache keys on the victim test set's
// identity, and each model carries its own test-set instance.
//
// Usage:
//
//	axtransfer [-eps 0.05] [-n 300] [-mult mul8u_17KS] [-progress]
//	axtransfer -attack MIFGSM-linf               # momentum transfer
//	axtransfer -attack UAP-linf                  # universal transfer
//	axtransfer -attack PGD-linf -restarts 3
//
// One declared transfer cell (a checked-in victim_model spec) runs
// through axrobust, which also applies flag overrides to it:
//
//	axrobust -spec testdata/specs/table2-digits-cross.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiment"
)

func main() {
	atkName := flag.String("attack", "BIM-linf", "attack crafted on the source model")
	eps := flag.Float64("eps", 0.05, "perturbation budget")
	n := flag.Int("n", 300, "test samples per cell")
	mult := flag.String("mult", "", "multiplier for all Ax victims (default: 17KS for LeNet, KEM for AlexNet)")
	restarts := flag.Int("restarts", 0, "PGD random restarts (0 or 1 = plain PGD)")
	progress := flag.Bool("progress", false, "stream per-cell progress to stderr")
	flag.Parse()

	var params *experiment.AttackParams
	if *restarts > 1 {
		params = &experiment.AttackParams{Restarts: *restarts}
	}
	// Each cell sweeps the clean row plus the budget — unless the
	// budget *is* the clean row, which spec validation (rightly)
	// rejects as a duplicate.
	cellEps := []float64{0}
	if core.EpsKey(*eps) != 0 {
		cellEps = append(cellEps, *eps)
	}

	var engineOpts []experiment.Option
	if *progress {
		engineOpts = append(engineOpts, experiment.WithProgress(experiment.Progress(os.Stderr)))
	}
	eng := experiment.New(engineOpts...)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("Transferability (Table II): %s eps=%g\n", *atkName, *eps)
	fmt.Printf("%-36s %-8s %s\n", "source -> victim", "dataset", "clean/adv")

	datasets := []struct {
		name  string
		lenet string
		alex  string
	}{
		{"digits", "lenet5-digits32", "alexnet-digits"},
		{"objects", "lenet5-objects", "alexnet-objects"},
	}
	for _, d := range datasets {
		for _, source := range []string{d.lenet, d.alex} {
			for _, victim := range []string{d.lenet, d.alex} {
				m := *mult
				if m == "" {
					m = "mul8u_KEM"
					if victim == d.lenet {
						m = "mul8u_17KS"
					}
				}
				spec := &experiment.Spec{
					Name:         source + "->" + victim,
					Model:        source,
					VictimModel:  victim,
					Multipliers:  []string{m},
					Attacks:      []string{*atkName},
					AttackParams: params,
					Eps:          cellEps,
					Samples:      *n,
					Seed:         17,
				}
				rep, err := eng.Run(ctx, spec)
				if err != nil {
					cli.Fail("axtransfer", err)
				}
				g := rep.Grids[0]
				// With -eps 0 the cell has a single (clean) row.
				fmt.Printf("%-36s %-8s %3.0f/%-3.0f\n", source+" -> Ax("+victim+")", d.name, g.Acc[0][0], g.Acc[len(g.Acc)-1][0])
			}
		}
	}
}

package main

import (
	"math/rand"
	"slices"

	"repro/internal/axmult"
	"repro/internal/experiment"
)

// variants is how many input sets craft-iter and serve-overlap have.
// The run seed picks one (seed mod variants), so every seed maps to
// inputs whose report digests are pinned in pins.json.
const variants = 8

// model is the paper's Fig. 4 source model, crafted on in float.
const model = "lenet5-digits"

// Sample counts per workload. Changing one changes the work and the
// reports: re-pin with -role pin.
const (
	craftN = 6
	sweepN = 8
	serveN = 8
)

// fig4Eps is the paper's Fig. 4 budget sweep.
var fig4Eps = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1, 1.5, 2}

// workload describes one benchmark workload.
type workload struct {
	name string
	// designs are the AxDNN victims set-up materialises.
	designs []string
	// serve runs the workload through an in-process axserve.
	serve bool
	// n is the test-sample count every suite of the workload uses.
	n int
	// variants is how many pinned input sets the seed chooses from.
	variants int
}

var workloads = map[string]workload{
	// The float attack+nn path does almost all the work: three
	// iterative attacks crafted on the float source, two victims.
	"craft-iter": {name: "craft-iter", designs: []string{"mul8u_1JFF", "mul8u_JV3"}, n: craftN, variants: variants},
	// The axnn LUT kernels dominate: single-step crafts, nine victims,
	// ten budgets (the Fig. 4c shape). FGM is deterministic and the spec
	// has no sample offset, so no seed can change its input: it has one
	// variant.
	"victim-sweep": {name: "victim-sweep", designs: axmult.MNISTSet(), n: sweepN, variants: 1},
	// Service, job dedup, the shared core.Cache and the disk tier:
	// overlapping jobs from two closed-loop clients.
	"serve-overlap": {name: "serve-overlap", designs: axmult.MNISTSet(), serve: true, n: serveN, variants: variants},
}

// variantOf maps a run seed onto one of the workload's pinned input
// variants.
func (w workload) variantOf(seed int64) int {
	v := int(seed % int64(w.variants))
	if v < 0 {
		v += w.variants
	}
	return v
}

// specSeed is the attack seed the program sees for a variant.
func specSeed(v int) int64 { return int64(101 + 37*v) }

// serialSpec builds the single suite a serial workload runs per pass.
func serialSpec(w workload, v int) *experiment.Spec {
	switch w.name {
	case "craft-iter":
		return &experiment.Spec{
			Name:        "craft-iter",
			Model:       model,
			Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
			Attacks:     []string{"PGD-linf", "MIFGSM-linf", "BIM-l2"},
			Eps:         []float64{0, 0.05, 0.1, 0.2},
			Samples:     w.n,
			Seed:        specSeed(v),
			Workers:     1,
		}
	case "victim-sweep":
		return &experiment.Spec{
			Name:        "victim-sweep",
			Model:       model,
			Multipliers: []string{"mnist"},
			Attacks:     []string{"FGM-linf", "FGM-l2"},
			Eps:         fig4Eps,
			Samples:     w.n,
			Seed:        specSeed(v),
			Workers:     1,
		}
	}
	panic("no serial spec for " + w.name)
}

// clients is the serve-overlap closed loop's client count, one per
// vCPU of the 2-vCPU hosts the benchmark targets; it matches the
// service's 2 jobs in flight.
const clients = 2

// servePool builds the job sequences of one serve-overlap pass, one per
// closed-loop client. Every variant does the same work; only the
// budgets, the victim subsets and the resubmitted jobs differ.
//
// The two jobs of a pair share one Fig. 4 attack x 3-eps grid but use
// different 3-design victim subsets; each client runs one job of every
// pair, in the same order, so a pair's jobs run concurrently and craft
// the same batches at once. Six first-visit BIM grids with disjoint
// crafted batches overflow the 256 KiB memory budget at serveN samples;
// the last two pairs revisit the first two grids after that eviction,
// so their batches come from disk. After every two pairs one client
// resubmits one of its own finished jobs exactly, so one job in five is
// a resubmission. Every first visit costs the same, so the median and
// tail jobs both fall inside one group of like jobs.
func servePool(v int) [clients][]*experiment.Spec {
	rng := rand.New(rand.NewSource(int64(1_000 + v)))
	designs := axmult.MNISTSet()
	attacks := []string{"BIM-linf", "BIM-l2", "BIM-linf", "BIM-l2", "BIM-linf", "BIM-l2"}
	// Each attack draws its budgets from its own permutation of the
	// nonzero Fig. 4 budgets, two at a time: no batch is shared
	// between first visits.
	unused := map[string][]int{}
	grids := make([][]float64, len(attacks))
	for i, a := range attacks {
		p, ok := unused[a]
		if !ok {
			p = rng.Perm(len(fig4Eps) - 1)
		}
		grids[i] = []float64{0, fig4Eps[1+p[0]], fig4Eps[1+p[1]]}
		slices.Sort(grids[i])
		unused[a] = p[2:]
	}
	order := []int{0, 1, 2, 3, 4, 5, 0, 2}
	var seqs [clients][]*experiment.Spec
	for b := 0; b < len(order)/2; b++ {
		for _, g := range order[2*b : 2*b+2] {
			perm := rng.Perm(len(designs))
			for c := range seqs {
				var subset []string
				for _, i := range perm[3*c : 3*c+3] {
					subset = append(subset, designs[i])
				}
				seqs[c] = append(seqs[c], &experiment.Spec{
					Name:        "serve-" + attacks[g],
					Model:       model,
					Multipliers: subset,
					Attacks:     []string{attacks[g]},
					Eps:         grids[g],
					Samples:     serveN,
					Seed:        7,
					Workers:     1,
				})
			}
		}
		c := b % clients
		seqs[c] = append(seqs[c], seqs[c][rng.Intn(len(seqs[c]))])
	}
	return seqs
}

// allJobs lists a pool's specs client by client.
func allJobs(seqs [clients][]*experiment.Spec) []*experiment.Spec {
	var out []*experiment.Spec
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

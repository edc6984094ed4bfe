package attack

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Restart wraps a randomised attack (PGD) in N random restarts: the
// attack is re-run from fresh random starts and the first restart
// that fools the source model wins; if none does, the last crafted
// sample is returned, so the budget is spent either way. The wrapper
// keeps the inner attack's Name — a restarted PGD-linf still sweeps
// as "PGD-linf" — but extends its ConfigKey, so crafted-example
// caches never conflate restarted and plain runs.
type Restart struct {
	inner Attack
	// Restarts is the number of independent crafting runs.
	Restarts int
}

// NewRestart wraps an attack in n random restarts. The inner attack
// must draw fresh randomness per run (PGD's random start) for the
// restarts to explore distinct basins.
func NewRestart(a Attack, n int) *Restart {
	if n < 1 {
		n = 1
	}
	return &Restart{inner: a, Restarts: n}
}

// Name implements Attack, delegating to the wrapped attack.
func (a *Restart) Name() string { return a.inner.Name() }

// Norm implements Attack.
func (a *Restart) Norm() Norm { return a.inner.Norm() }

// ConfigKey implements Configurable: the restart count changes what
// gets crafted, on top of every inner knob.
func (a *Restart) ConfigKey() string {
	return fmt.Sprintf("%s[restarts=%d]", ConfigKey(a.inner), a.Restarts)
}

// PerturbBatch implements Attack. Rows craft independently, so each
// restart re-crafts only the rows no earlier restart has fooled, each
// consuming its own rng stream further, and a fooled row keeps its
// first fooling sample. Restart k of a row therefore crafts the same
// bytes whatever batch the row is in.
func (a *Restart) PerturbBatch(m Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	out := a.inner.PerturbBatch(m, xs, labels, eps, rngs)
	if a.Restarts <= 1 || eps == 0 {
		return out
	}
	done := a.fooledRows(m, out, labels)
	for r := 1; r < a.Restarts; r++ {
		var open []int
		for row, ok := range done {
			if !ok {
				open = append(open, row)
			}
		}
		if len(open) == 0 {
			return out
		}
		subX := tensor.New(append([]int{len(open)}, xs.Shape[1:]...)...)
		subLabels := make([]int, len(open))
		subRngs := make([]*rand.Rand, len(open))
		for i, row := range open {
			copy(subX.Row(i).Data, xs.Row(row).Data)
			subLabels[i] = labels[row]
			subRngs[i] = rngs[row]
		}
		adv := a.inner.PerturbBatch(m, subX, subLabels, eps, subRngs)
		for i, row := range open {
			copy(out.Row(row).Data, adv.Row(i).Data)
		}
		// After the last restart nothing reads done; before that, only
		// the rows just overwritten can have changed state.
		if r < a.Restarts-1 {
			subDone := a.fooledRows(m, adv, subLabels)
			for i, row := range open {
				done[row] = subDone[i]
			}
		}
	}
	return out
}

// fooledRows reports, per row, whether the victim-free source model
// already misclassifies the crafted sample.
func (a *Restart) fooledRows(m Model, adv *tensor.T, labels []int) []bool {
	done := make([]bool, adv.Rows())
	for i, p := range tensor.ArgMaxRows(m.LogitsBatch(adv)) {
		done[i] = p != labels[i]
	}
	return done
}

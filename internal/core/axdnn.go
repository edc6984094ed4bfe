package core

import (
	"context"
	"fmt"

	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// calibSamples is how many leading calibration samples a victim
// compile derives its activation ranges from.
const calibSamples = 64

// maxCompiled bounds the compiled-victim memo: a process that keeps
// compiling new configurations (fresh hardened models, many quantization
// widths) drops the whole memo and starts a new epoch, as PredMax does
// for predictions.
const maxCompiled = 16

// BuildAxVictims compiles the trained float network once (with the
// given calibration samples and quantization options) and returns one
// victim per multiplier name — the paper's M1..Mn columns. It is the
// uncached form of Cache.AxVictims, which every sweep uses; it stays
// for the suite benchmark's set-up and per-layer probes, which time a
// cold compile on purpose.
func BuildAxVictims(src *nn.Network, calib *dataset.Set, mults []string, opts axnn.Options) ([]Victim, error) {
	base, err := compileVictim(src, calib.Inputs(calibSamples), opts)
	if err != nil {
		return nil, err
	}
	return withMultipliers(base, mults)
}

// AxVictims is BuildAxVictims through the cache's compiled-victim memo:
// the source is compiled once per distinct configuration
// (axnn.ConfigKey: source weights, calibration samples, code width,
// dense and zero-point switches) however many runs, multiplier subsets
// and ensemble pools ask for it, concurrent callers included. Every
// call returns its own WithMultiplier copies of the shared, immutable
// compiled network.
func (c *Cache) AxVictims(src *nn.Network, calib *dataset.Set, mults []string, opts axnn.Options) ([]Victim, error) {
	samples := calib.Inputs(calibSamples)
	// A compile is not cancellable, so its waiters need no ctx.
	base, hit, err := c.compileFlights.get(context.Background(), axnn.ConfigKey(src, samples, opts), func() (*axnn.Network, bool, error) {
		base, err := compileVictim(src, samples, opts)
		return base, false, err
	})
	if err != nil {
		return nil, err
	}
	if hit {
		c.compileHits.Add(1)
	} else {
		c.compiles.Add(1)
	}
	return withMultipliers(base, mults)
}

func compileVictim(src *nn.Network, samples []*tensor.T, opts axnn.Options) (*axnn.Network, error) {
	base, err := axnn.Compile(src, samples, opts)
	if err != nil {
		return nil, fmt.Errorf("core: compiling %s: %w", src.Name, err)
	}
	return base, nil
}

// withMultipliers is the one victim-building loop: a cheap
// WithMultiplier copy of base per design.
func withMultipliers(base *axnn.Network, mults []string) ([]Victim, error) {
	victims := make([]Victim, 0, len(mults))
	for _, name := range mults {
		lut, err := axmult.Lookup(name)
		if err != nil {
			return nil, err
		}
		victims = append(victims, NewVictim(name, base.WithMultiplier(lut)))
	}
	return victims, nil
}

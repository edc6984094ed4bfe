package core

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// BuildAxVictims compiles the trained float network once (with the
// given calibration samples and quantization options) and returns one
// victim per multiplier name — the paper's M1..Mn columns. The first
// name is conventionally the accurate design (mul8u_1JFF), making that
// column the quantized accurate DNN.
func BuildAxVictims(src *nn.Network, calib *dataset.Set, mults []string, opts axnn.Options) ([]Victim, error) {
	base, err := axnn.Compile(src, calib.Inputs(64), opts)
	if err != nil {
		return nil, fmt.Errorf("core: compiling %s: %w", src.Name, err)
	}
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

// QuantPair returns the Fig. 8 victim pair: the non-quantized float
// network and its 8-bit quantized (exact-multiplier) counterpart.
func QuantPair(src *nn.Network, calib *dataset.Set, bits uint) ([]Victim, error) {
	q, err := axnn.Compile(src, calib.Inputs(64), axnn.Options{Bits: bits})
	if err != nil {
		return nil, err
	}
	return []Victim{
		NewFloatVictim("float", src),
		NewVictim(fmt.Sprintf("q%d", bitsLabel(bits)), q),
	}, nil
}

func bitsLabel(bits uint) uint {
	if bits == 0 || bits > 8 {
		return 8
	}
	return bits
}

// TransferResult is one cell of the paper's Table II: accuracy of a
// victim before and after replaying adversarial examples crafted on a
// different source model.
type TransferResult struct {
	Source  string
	Victim  string
	Dataset string
	// CleanAcc and AdvAcc are percentages ("X/Y" in Table II).
	CleanAcc float64
	AdvAcc   float64
}

// Transfer crafts adversarial examples on src (accurate float model)
// and measures victim accuracy before and after — the paper's
// transferability protocol with BIM-linf at eps=0.05.
func (c *Cache) Transfer(ctx context.Context, src *nn.Network, victim Victim, set *dataset.Set, atk attack.Attack, eps float64, opts Options) (TransferResult, error) {
	g, err := c.RobustnessGrid(ctx, src, []Victim{victim}, set, atk, []float64{0, eps}, opts)
	if err != nil {
		return TransferResult{}, err
	}
	return TransferResult{
		Source:   src.Name,
		Victim:   victim.Name,
		Dataset:  set.Name,
		CleanAcc: g.Acc[0][0],
		AdvAcc:   g.Acc[1][0],
	}, nil
}

// String renders the result in Table II's "before/after" notation.
func (t TransferResult) String() string {
	return fmt.Sprintf("%s -> %s on %s: %.0f/%.0f", t.Source, t.Victim, t.Dataset, t.CleanAcc, t.AdvAcc)
}

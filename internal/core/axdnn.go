package core

import (
	"context"
	"fmt"

	"repro/internal/attack"
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
// victim per multiplier name — the paper's M1..Mn columns. The first
// name is conventionally the accurate design (mul8u_1JFF), making that
// column the quantized accurate DNN. It is the uncached form of
// Cache.AxVictims.
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
	key := axnn.ConfigKey(src, samples, opts)
	if v, ok := c.nets.Load(key); ok {
		c.compileHits.Add(1)
		return withMultipliers(v.(*axnn.Network), mults)
	}
	// A compile is not cancellable, so its waiters need no ctx.
	base, led, err := c.compileFlights.do(context.Background(), key, func() (*axnn.Network, error) {
		if v, ok := c.nets.Load(key); ok {
			c.compileHits.Add(1)
			return v.(*axnn.Network), nil
		}
		base, err := compileVictim(src, samples, opts)
		if err != nil {
			return nil, err
		}
		c.compiles.Add(1)
		c.storeNet(key, base)
		return base, nil
	})
	if err != nil {
		return nil, err
	}
	if !led {
		c.compileHits.Add(1)
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

func (c *Cache) storeNet(key string, n *axnn.Network) {
	if c.netCount.Load() >= maxCompiled {
		c.clearNets()
	}
	if _, loaded := c.nets.LoadOrStore(key, n); !loaded {
		c.netCount.Add(1)
	}
}

func (c *Cache) clearNets() {
	c.nets.Range(func(k, _ any) bool {
		c.nets.Delete(k)
		return true
	})
	c.netCount.Store(0)
}

// QuantPair returns the Fig. 8 victim pair: the non-quantized float
// network and its 8-bit quantized (exact-multiplier) counterpart.
func QuantPair(src *nn.Network, calib *dataset.Set, bits uint) ([]Victim, error) {
	q, err := axnn.Compile(src, calib.Inputs(calibSamples), axnn.Options{Bits: bits})
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

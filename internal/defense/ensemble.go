package defense

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Ensemble is a moving-target victim in the style of MTDeep: a pool of
// AxDNN configurations (one per approximate multiplier) of which one,
// drawn per query, serves each classification. The adversary cannot
// know which inexactness answers any given query, so a perturbation
// tuned to one configuration may miss the one that actually serves.
//
// The per-query draw is a keyed hash of the query's pixels and the
// ensemble seed — a deterministic function, so replays, cached victim
// predictions, and repeated reports are bit-identical, while distinct
// queries spread uniformly over the pool and an adversary without the
// seed cannot aim at a member. The honest attack against this victim
// is attack.NewEOT, which averages gradients over SampleModel draws
// instead of trusting any single configuration; Ensemble implements
// attack.Sampler for it.
type Ensemble struct {
	name string
	key  string
	pool []attack.Model
	seed int64
}

// BuildEnsemble returns the randomized ensemble victim over one AxDNN
// per multiplier in pool. The members come from c's compiled-victim
// memo (core.Cache.AxVictims), the grid victims' path, so a suite whose
// grid victims share the pool's quantization compiles once.
func BuildEnsemble(c *core.Cache, src *nn.Network, calib *dataset.Set, pool []string, opts axnn.Options, seed int64) (*Ensemble, error) {
	if len(pool) == 0 {
		return nil, errors.New("defense: ensemble needs a non-empty multiplier pool")
	}
	victims, err := c.AxVictims(src, calib, pool, opts)
	if err != nil {
		return nil, err
	}
	members := make([]attack.Model, len(victims))
	keys := make([]string, len(victims))
	for i, v := range victims {
		members[i] = v.Factory()
		keys[i] = members[i].(*axnn.Network).ModelKey()
	}
	return &Ensemble{
		name: fmt.Sprintf("ensemble[%d]", len(pool)),
		// The members' ModelKeys, in pool order, fold everything their
		// behaviour depends on (source weights, calibration samples,
		// quantization, dense and zero-point switches, multiplier), as
		// the compile computed it; with the draw seed, crafted-example
		// and prediction caches never conflate two ensembles.
		key:  fmt.Sprintf("ensemble[%s|seed=%d]", strings.Join(keys, ","), seed),
		pool: members,
		seed: seed,
	}, nil
}

// Name is the victim column label ("ensemble[<pool size>]").
func (e *Ensemble) Name() string { return e.name }

// Size returns the pool size.
func (e *Ensemble) Size() int { return len(e.pool) }

// pickIdx hashes one query into a pool index (FNV-1a over the seed
// and the query's pixel bits).
func (e *Ensemble) pickIdx(x *tensor.T) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(e.seed)
	h *= prime
	for _, v := range x.Data {
		h ^= uint64(math.Float32bits(v))
		h *= prime
	}
	return int(h % uint64(len(e.pool)))
}

// LogitsBatch implements attack.Model: each row is answered by the
// member its own pixels draw. Rows drawing the same member are scored
// with one LogitsBatch call, so row r is the same bytes whatever else
// shares its batch.
func (e *Ensemble) LogitsBatch(xs *tensor.T) *tensor.T {
	n := xs.Rows()
	groups := make([][]int, len(e.pool))
	for r := 0; r < n; r++ {
		mi := e.pickIdx(xs.Row(r))
		groups[mi] = append(groups[mi], r)
	}
	var out *tensor.T
	for mi, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		logits := e.pool[mi].LogitsBatch(tensor.GatherRows(xs, rows))
		if out == nil {
			out = tensor.New(n, logits.RowLen())
		}
		tensor.ScatterRows(out, logits, rows)
	}
	return out
}

// ModelKey implements core.ModelKeyer: the key (the members' keys and
// the seed) fully determines the ensemble's behaviour, so prediction
// memos survive across runs that rebuild an identical ensemble.
func (e *Ensemble) ModelKey() string { return e.key }

// SampleModel implements attack.Sampler: one uniform draw from the
// pool — the distribution an adaptive adversary averages over.
func (e *Ensemble) SampleModel(rng *rand.Rand) attack.Model {
	return e.pool[rng.Intn(len(e.pool))]
}

// SamplerKey implements attack.Sampler.
func (e *Ensemble) SamplerKey() string { return e.key }

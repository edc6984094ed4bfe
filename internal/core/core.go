// Package core implements the paper's contribution: the adversarial
// robustness evaluation methodology for approximate DNN accelerators
// (Algorithm 1 and the analyses of Section IV).
//
// The protocol, faithful to the paper's threat model:
//
//  1. Adversarial examples are crafted against the accurate float DNN
//     (the adversary knows the model but not the accelerator's
//     inexactness) for every perturbation budget in the sweep.
//  2. Each crafted input is replayed on every victim — the quantized
//     accurate DNN and the AxDNNs, one per approximate multiplier.
//  3. Robustness is the percentage of test samples the victim still
//     classifies correctly: R(eps) = (1 - adv/|D|) * 100.
//
// The harness is batch-first and stateless: each (attack, eps) batch
// is crafted once on the shared source network (no per-worker clones),
// fanned across every victim with LogitsBatch, and memoised in a
// Cache keyed by (source, samples, attack, eps, seed) so multi-grid
// sweeps never re-craft identical examples. Victim predictions are
// memoised per (victim, batch) too, so overlapping sweeps — the
// attack-independent eps=0 clean row, or the same (attack, eps) cell
// across figures — replay nothing twice. Crafted batches, predictions
// and compiled victims are each a memo (flight.go): one bounded map
// read through one coalesced lookup, and a new memoised artifact is a
// memo too.
//
// Every sweep runs against an explicit Cache (NewCache): the single
// grid of Cache.RobustnessGrid here, whole declared suites (many
// attacks, one spec, streaming progress, sharding, the Table II
// transfer cells) one level up in internal/experiment. There is no
// process-global cache, so two callers never interfere, and the
// crafting/prediction worker loops observe context cancellation.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Victim is a named classifier under evaluation. Factory is invoked
// once per sweep and must return a model that is safe for concurrent
// Logits calls — both the float nn networks and compiled axnn
// networks now are. Models that additionally implement
// attack.BatchModel are evaluated with LogitsBatch. Factories that
// return a stable model across calls additionally let the prediction
// memo span grids.
type Victim struct {
	Name    string
	Factory func() attack.Model
}

// NewVictim wraps a concurrency-safe model (e.g. a compiled axnn
// network) as a victim.
func NewVictim(name string, m attack.Model) Victim {
	return Victim{Name: name, Factory: func() attack.Model { return m }}
}

// NewFloatVictim wraps a float nn network. Inference on nn networks is
// stateless, so the network is shared as-is — no per-worker cloning.
func NewFloatVictim(name string, n *nn.Network) Victim {
	return Victim{Name: name, Factory: func() attack.Model { return n }}
}

// Options tunes a robustness evaluation.
type Options struct {
	// Samples caps the number of test samples (0 = all).
	Samples int
	// Seed drives the attack randomness; each (sample, eps) pair gets
	// an independent deterministic stream.
	Seed int64
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
	// Batch caps the crafting/evaluation batch size (0 = derived from
	// the worker count, at most maxBatch).
	Batch int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maxBatch bounds the default batch on huge sample counts. With the
// pooled workspace arenas in axnn (im2col/accumulator scratch is
// checked out per call and reused across layers, samples, and grid
// cells), the per-batch setup no longer scales with batch size, so
// larger default batches amortise quantization passes and chunk
// boundaries while the arena keeps memory bounded.
const maxBatch = 64

// batchSize derives the crafting batch: small enough that every worker
// gets work, large enough to amortise the batched engine's setup.
func (o Options) batchSize(n int) int {
	if o.Batch > 0 {
		return o.Batch
	}
	w := o.workers()
	b := (n + w - 1) / w
	if b > maxBatch {
		b = maxBatch
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Grid is the result of sweeping one attack over perturbation budgets
// and victims — one paper heat-map panel (Figs. 4-7).
type Grid struct {
	Attack  string    `json:"attack"`
	Dataset string    `json:"dataset"`
	Eps     []float64 `json:"eps"`
	Victims []string  `json:"victims"`
	// Acc[ei][vi] is the percentage robustness of victim vi at Eps[ei].
	Acc [][]float64 `json:"acc"`
}

// RobustnessGrid runs Algorithm 1 for one attack: for every budget in
// eps, craft adversarial examples on the accurate source model (or
// recall them from c) and evaluate every victim on them. It returns
// ctx.Err() promptly — at the next crafting/evaluation chunk boundary
// — when ctx is cancelled, leaking no goroutines and memoising no
// partial results.
func (c *Cache) RobustnessGrid(ctx context.Context, src *nn.Network, victims []Victim, set *dataset.Set, atk attack.Attack, eps []float64, opts Options) (*Grid, error) {
	test := set.Slice(opts.Samples)
	g := &Grid{
		Attack:  atk.Name(),
		Dataset: set.Name,
		Eps:     append([]float64(nil), eps...),
		Acc:     make([][]float64, len(eps)),
	}
	models := make([]attack.Model, len(victims))
	for i, v := range victims {
		g.Victims = append(g.Victims, v.Name)
		models[i] = v.Factory()
	}
	if test.Len() == 0 {
		// Degenerate sweep: no samples to craft or score.
		for ei := range eps {
			row := make([]float64, len(victims))
			for i := range row {
				row[i] = math.NaN()
			}
			g.Acc[ei] = row
		}
		return g, nil
	}
	target := NewCraftTarget(src, test, atk)
	for ei, e := range eps {
		adv, _, err := c.CraftedBatch(ctx, target, e, opts)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(models))
		for vi, m := range models {
			preds, _, err := c.Predictions(ctx, m, adv, opts)
			if err != nil {
				return nil, err
			}
			row[vi] = Robustness(preds, test.Y)
		}
		g.Acc[ei] = row
	}
	return g, nil
}

// Robustness scores predictions against labels as the paper's
// percentage metric: R = (1 - adv/|D|) * 100.
func Robustness(preds, labels []int) float64 {
	var correct int
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(labels))
}

// craftKey identifies one crafted adversarial batch. Samples are
// identified by content: the test-set fingerprint (labels and pixels),
// the sample shape and the count, so two equal sets loaded separately
// (each victim model's own copy of one dataset) share their batches.
// Source identity is the network pointer plus a weights fingerprint,
// so retraining a network in place invalidates its entries instead of
// serving stale adversarial examples.
type craftKey struct {
	src    *nn.Network
	srcFP  uint64
	setFP  uint64
	shape  string
	n      int
	attack string
	// epsQ is the quantised budget (see EpsKey): budgets the Grid API
	// treats as equal must hit the same entry.
	epsQ int64
	seed int64
}

// predKey identifies one victim's predictions over one crafted batch.
// Batches are identified by content (batchID), so two budgets that
// craft byte-identical batches (FGM-linf at eps 1, 1.5 and 2 all
// saturate to the same codes) share one prediction. Models are pointer
// identities (compiled axnn networks are immutable); mutable models
// that expose a weights fingerprint (float nn networks) additionally
// carry it, so retraining in place invalidates their memos. Models
// with a declared config identity (ModelKeyer) are keyed by that
// string instead of the pointer, so rebuilding an identical victim —
// a fresh defense ensemble per engine run — still hits the memo and
// the key does not pin the dead instance.
type predKey struct {
	model   attack.Model
	modelFP uint64
	key     string
	batch   batchID
}

// batchID is a batch's content identity: its shape and the
// fingerprint of its shape and values (batchFingerprint, which the
// disk tier's prediction keys use too).
type batchID struct {
	shape string
	fp    uint64
}

func newBatchID(b *tensor.T) batchID {
	return batchID{shape: fmt.Sprint(b.Shape), fp: batchFingerprint(b)}
}

// fingerprinter is implemented by mutable models (nn.Network) whose
// cache entries must track weight changes.
type fingerprinter interface {
	WeightsFingerprint() uint64
}

// ModelKeyer is implemented by victims whose behaviour is fully
// determined by a configuration string (defense.Ensemble: pool,
// source-weights fingerprint, quantization, draw seed). Their
// prediction memos are keyed by that string, surviving across engine
// runs and service jobs that rebuild the victim instance.
type ModelKeyer interface {
	ModelKey() string
}

// EpsKey quantises a budget to the same tolerance Grid.At uses for
// comparison (epsTolerance), so budgets the API treats as equal craft
// identically: same rng salt, same cache entry. Exported so spec
// validation (internal/experiment) can reject budget lists that would
// alias in the cache and the Grid accessors.
func EpsKey(eps float64) int64 {
	return int64(math.Round(eps / epsTolerance))
}

// epsTolerance is the budget comparison tolerance shared by the Grid
// accessors and the crafting cache: budgets within it are the same
// cell (absorbs float64 round-off in arithmetic like 0.05*i).
const epsTolerance = 1e-9

// epsEqual compares budgets within epsTolerance.
func epsEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= epsTolerance
}

// At returns the robustness of victim name at budget eps, and whether
// the grid contains that cell.
func (g *Grid) At(eps float64, name string) (float64, bool) {
	ei, vi := -1, -1
	for i, e := range g.Eps {
		if epsEqual(e, eps) {
			ei = i
		}
	}
	for i, v := range g.Victims {
		if v == name {
			vi = i
		}
	}
	if ei < 0 || vi < 0 {
		return 0, false
	}
	return g.Acc[ei][vi], true
}

// Column returns victim name's robustness across all budgets and
// whether the grid has that victim at all — so an absent victim is
// distinguishable from one with no budgets.
func (g *Grid) Column(name string) ([]float64, bool) {
	for vi, v := range g.Victims {
		if v == name {
			col := make([]float64, len(g.Eps))
			for ei := range g.Eps {
				col[ei] = g.Acc[ei][vi]
			}
			return col, true
		}
	}
	return nil, false
}

// MaxAccuracyLoss returns the largest drop from the eps=0 (clean)
// row observed anywhere in the grid, with the victim and budget where
// it happens — the paper's headline "X% accuracy loss" statistic.
// If the grid has no eps=0 row, the smallest budget's row is the
// baseline.
func (g *Grid) MaxAccuracyLoss() (loss float64, victim string, eps float64) {
	if len(g.Acc) == 0 {
		return 0, "", 0
	}
	bi := 0
	for i, e := range g.Eps {
		if epsEqual(e, 0) {
			bi = i
			break
		}
		if e < g.Eps[bi] {
			bi = i
		}
	}
	base := g.Acc[bi]
	for ei := range g.Eps {
		for vi := range g.Victims {
			if d := base[vi] - g.Acc[ei][vi]; d > loss {
				loss, victim, eps = d, g.Victims[vi], g.Eps[ei]
			}
		}
	}
	return loss, victim, eps
}

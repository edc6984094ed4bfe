package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Stage latency histograms in the process-wide registry. Both observe
// only cache-miss work (a memory hit costs a map load and is not a
// stage): craft covers the disk probe plus any recompute, predict
// covers victim scoring.
var (
	craftHist = obs.Default.Histogram("ax_craft_duration_seconds",
		"Adversarial batch crafting latency on cache misses (disk probe + compute), in seconds.")
	predictHist = obs.Default.Histogram("ax_predict_duration_seconds",
		"Victim prediction latency on cache misses (disk probe + compute), in seconds.")
)

// CacheConfig bounds a Cache's retention. The zero value selects the
// defaults.
type CacheConfig struct {
	// CraftBudget bounds the total float32 elements retained across
	// crafted batches (default ~128 MB worth). Exceeding it resets the
	// cache — a simple epoch eviction that keeps any one sweep fully
	// cached while keeping long-lived processes bounded.
	CraftBudget int64
	// PredMax bounds the number of prediction memos independently of
	// the craft budget: prediction slices are tiny, but their keys pin
	// victim models, which must not accumulate forever in processes
	// that keep compiling fresh victims over small sample sets.
	PredMax int64
	// Disk adds an optional persistent tier under the in-memory one: a
	// memory miss probes the store by the artifact's stable
	// content-addressed key (see diskcodec.go) before recomputing, and
	// freshly computed artifacts are written through. A cold process
	// over a warm store therefore serves a repeated suite with zero
	// re-crafting. nil (the default) keeps the cache memory-only with
	// exactly the previous behavior.
	Disk *store.Store
}

const (
	defaultCraftBudget int64 = 32 << 20
	defaultPredMax     int64 = 4096
)

// Cache memoises crafted adversarial batches, victim predictions and
// compiled victims for one evaluation engine. Step 1 of Algorithm 1 is
// victim-independent, so identical (source, samples, attack, eps,
// seed) cells never need re-crafting; the victim side memoises per
// (victim, batch) so overlapping sweeps — the attack-independent
// eps=0 clean row, or the same cell across figures — replay nothing
// twice.
//
// Each Cache is independent: two engines with their own caches never
// observe each other's entries. A zero Cache is not usable; construct
// with NewCache. All methods are safe for concurrent use.
type Cache struct {
	// The three memos, each named for the in-flight table that
	// coalesces its concurrent misses. Crafted batches cost their
	// float32 element count against CraftBudget, and their epoch reset
	// also drops the predictions keyed by them; predictions cost one
	// entry against PredMax; compiled victims (see AxVictims) one entry
	// against maxCompiled.
	craftFlights   memo[craftKey, *tensor.T]
	predFlights    memo[predKey, []int]
	compileFlights memo[string, *axnn.Network]
	// batchIDs holds each scored batch's content identity by pointer,
	// so a batch that many victims score is hashed once. It is bounded
	// like the prediction memo and dropped with the crafted batches,
	// so it never keeps an evicted batch alive.
	batchIDs memo[*tensor.T, batchID]
	// disk is the optional persistent tier (CacheConfig.Disk): probed
	// on memory misses, written through on computes. Store failures
	// degrade to recomputes, never to errors on the evaluation path.
	disk *store.Store

	// Monotone counters behind Stats, beside the memos' own.
	compiles    atomic.Int64
	compileHits atomic.Int64
	// diskCraft/diskPred partition the memory misses that went on to
	// probe the store; diskErrors counts store writes that failed and
	// stored values that would not decode (both degrade to recomputes).
	diskCraft  diskCounts
	diskPred   diskCounts
	diskErrors atomic.Int64
}

type diskCounts struct{ hits, misses atomic.Int64 }

// CacheStats is a point-in-time snapshot of a cache's counters — the
// surface a metrics endpoint scrapes and cache tests assert directly
// (instead of inferring hits from event streams or entry counts).
// Hit/miss/eviction counters are lifetime-monotone; entry and byte
// gauges reflect what is retained right now.
type CacheStats struct {
	// CraftHits / CraftMisses count CraftedBatch memory lookups,
	// including the attack-independent eps=0 clean row.
	CraftHits   int64
	CraftMisses int64
	// PredHits / PredMisses count Predictions memory lookups.
	PredHits   int64
	PredMisses int64
	// CraftCoalesced / PredCoalesced count the memory misses that
	// computed nothing because a concurrent call for the same key was
	// already computing it: they waited and shared its result. Each is
	// a subset of the matching Misses counter.
	CraftCoalesced int64
	PredCoalesced  int64
	// Compiles counts axnn.Compile runs behind AxVictims; CompileHits
	// counts AxVictims calls served by an already compiled (or
	// concurrently compiling) network.
	Compiles    int64
	CompileHits int64
	// CraftEvictions / PredEvictions count automatic epoch resets
	// (budget or entry-cap trips) — explicit Clear calls are not
	// evictions. A craft-budget trip wipes the prediction memos too
	// (Clear drops both sides), so it counts a PredEviction whenever
	// predictions were actually retained.
	CraftEvictions int64
	PredEvictions  int64
	// CraftEntries / PredEntries are the currently retained memo counts.
	CraftEntries int64
	PredEntries  int64
	// CraftBytes is the memory currently retained by crafted batches
	// (float32 payload, excluding keys and map overhead).
	CraftBytes int64

	// Disk-tier counters; all zero on a memory-only cache. DiskCraft* /
	// DiskPred* partition the memory misses that probed the persistent
	// store: a disk hit is an artifact served with zero recompute, a
	// disk miss went on to the compute path. DiskErrors counts failed
	// store writes and undecodable stored values (both degrade to
	// recomputes).
	DiskCraftHits   int64
	DiskCraftMisses int64
	DiskPredHits    int64
	DiskPredMisses  int64
	DiskErrors      int64
	// Store-level counters surfaced from the backing store.Store:
	// bloom-admission rejects (cold-key lookups answered without a
	// probe), records dropped by size-bounded segment GC, corrupt
	// records skipped on open/read, and the live key/byte footprint.
	DiskAdmissionRejects int64
	DiskGCEvictions      int64
	DiskCorruptRecords   int64
	DiskKeys             int64
	DiskBytes            int64
}

// Stats snapshots the cache's counters. Safe for concurrent use; the
// snapshot is internally consistent only field by field (counters are
// read independently), which is all a metrics scrape needs.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		CraftHits:       c.craftFlights.hits.Load(),
		CraftMisses:     c.craftFlights.misses.Load(),
		PredHits:        c.predFlights.hits.Load(),
		PredMisses:      c.predFlights.misses.Load(),
		CraftCoalesced:  c.craftFlights.coalesced.Load(),
		PredCoalesced:   c.predFlights.coalesced.Load(),
		Compiles:        c.compiles.Load(),
		CompileHits:     c.compileHits.Load(),
		CraftEvictions:  c.craftFlights.evictions.Load(),
		PredEvictions:   c.predFlights.evictions.Load(),
		CraftEntries:    int64(c.CraftedLen()),
		PredEntries:     c.predFlights.used.Load(),
		CraftBytes:      c.craftFlights.used.Load() * 4, // float32 elements
		DiskCraftHits:   c.diskCraft.hits.Load(),
		DiskCraftMisses: c.diskCraft.misses.Load(),
		DiskPredHits:    c.diskPred.hits.Load(),
		DiskPredMisses:  c.diskPred.misses.Load(),
		DiskErrors:      c.diskErrors.Load(),
	}
	if c.disk != nil {
		ds := c.disk.Stats()
		s.DiskAdmissionRejects = ds.BloomRejects
		s.DiskGCEvictions = ds.GCEvictedRecords
		s.DiskCorruptRecords = ds.CorruptRecords
		s.DiskKeys = ds.Keys
		s.DiskBytes = ds.DiskBytes
	}
	return s
}

// NewCache returns an empty cache with the given retention bounds.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{disk: cfg.Disk}
	c.craftFlights.limit, c.predFlights.limit = cfg.CraftBudget, cfg.PredMax
	if c.craftFlights.limit <= 0 {
		c.craftFlights.limit = defaultCraftBudget
	}
	if c.predFlights.limit <= 0 {
		c.predFlights.limit = defaultPredMax
	}
	c.craftFlights.cost = func(b *tensor.T) int64 { return int64(b.Len()) }
	c.craftFlights.reset = func() {
		// The reset wipes the prediction memos alongside the batches;
		// account for that so scrapers can attribute the drop.
		// Compiled victims stay: they do not grow with the batches and
		// cost a compile to rebuild.
		if c.predFlights.used.Load() > 0 {
			c.predFlights.evictions.Add(1)
		}
		c.predFlights.clear()
		c.batchIDs.clear()
	}
	c.batchIDs.limit = c.predFlights.limit
	c.compileFlights.limit = maxCompiled
	return c
}

// Clear drops every memoised adversarial batch, victim prediction and
// compiled victim. Weight changes invalidate entries automatically
// (the keys fingerprint the network), so this exists to reclaim memory
// in long-running sweeps ahead of the automatic evictions.
func (c *Cache) Clear() {
	c.craftFlights.clear()
	c.predFlights.clear()
	c.compileFlights.clear()
	c.batchIDs.clear()
}

// CraftedLen reports the number of memoised (attack, eps, seed)
// batches.
func (c *Cache) CraftedLen() int { return c.craftFlights.len() }

// diskProbe asks the persistent tier for one artifact by its
// content-addressed key. decode also validates: a stored value it
// rejects (undecodable, or shaped unlike what the compute path would
// produce) counts a disk error and, like an absent one, degrades to a
// recompute.
func diskProbe[V any](ctx context.Context, c *Cache, n *diskCounts, dkey string, decode func([]byte) (V, bool)) (v V, ok bool) {
	pctx, probe := obs.Start(ctx, "cache-probe")
	defer probe.End()
	_, get := obs.Start(pctx, "disk-get")
	val, found := c.disk.Get(dkey)
	get.End()
	if found {
		if v, ok = decode(val); !ok {
			c.diskErrors.Add(1)
		}
	}
	if ok {
		n.hits.Add(1)
	} else {
		n.misses.Add(1)
	}
	return v, ok
}

// diskPut writes one freshly computed artifact through to the
// persistent tier. Failures count a disk error and are otherwise
// ignored: the evaluation path never fails on persistence.
func (c *Cache) diskPut(ctx context.Context, dkey string, val []byte) {
	_, sp := obs.Start(ctx, "disk-put")
	defer sp.End()
	if err := c.disk.Put(dkey, val); err != nil {
		c.diskErrors.Add(1)
	}
}

// CraftTarget is one crafting target — a source network, a test set
// and an attack — with its cache identity computed once: the source
// weights fingerprint, the attack's ConfigKey, the sample shape and, on
// first use, the test-set fingerprint. A scheduler that asks
// CraftedCached about every ready cell of a grid, then crafts each,
// hashes the source once per binding instead of once per call. The
// identity is a snapshot: a source retrained in place needs a fresh
// target.
type CraftTarget struct {
	src    *nn.Network
	test   *dataset.Set
	atk    attack.Attack
	srcFP  uint64
	atkKey string
	shape  string
	setFP  func() uint64
}

// NewCraftTarget computes the identity of crafting atk on src over
// test.
func NewCraftTarget(src *nn.Network, test *dataset.Set, atk attack.Attack) *CraftTarget {
	return &CraftTarget{
		src: src, test: test, atk: atk,
		srcFP: src.WeightsFingerprint(),
		// ConfigKey, not Name: tunable attack parameters (BIM/PGD
		// steps, MI-FGSM momentum, UAP iterations, restart counts)
		// must never share cache entries.
		atkKey: attack.ConfigKey(atk),
		shape:  sampleShape(test),
		setFP:  sync.OnceValue(func() uint64 { return setFingerprint(test) }),
	}
}

// sampleShape renders the shape of test's samples for the memory-tier
// key ("" for an empty set).
func sampleShape(test *dataset.Set) string {
	if test.Len() == 0 {
		return ""
	}
	return fmt.Sprint(test.X[0].Shape)
}

// key is the memory-tier identity of the target's batch at one
// quantised budget and seed; eps=0 is the attack-independent clean
// batch.
func (t *CraftTarget) key(epsQ, seed int64) craftKey {
	if epsQ == 0 {
		return craftKey{setFP: t.setFP(), shape: t.shape, n: t.test.Len()}
	}
	return craftKey{
		src: t.src, srcFP: t.srcFP,
		setFP: t.setFP(), shape: t.shape, n: t.test.Len(),
		attack: t.atkKey, epsQ: epsQ, seed: seed,
	}
}

// CraftedBatch returns the [N, sampleShape...] adversarial batch for
// one (attack, eps) cell, crafting it in parallel batches on first
// use and serving the memo afterwards. hit reports whether the batch
// came without crafting by this call: from memory, from the disk tier,
// or from a concurrent call for the same batch that crafted it
// (coalesced, counted in CacheStats.CraftCoalesced). Crafting observes
// ctx: on cancellation the workers stop at the next chunk boundary,
// nothing is memoised, and ctx.Err() is returned; callers waiting on
// the cancelled call do not fail with it, one of them crafts instead.
func (c *Cache) CraftedBatch(ctx context.Context, t *CraftTarget, eps float64, opts Options) (adv *tensor.T, hit bool, err error) {
	if t.test.Len() == 0 {
		return nil, false, errors.New("core: cannot craft over an empty test set")
	}
	key := t.key(EpsKey(eps), opts.Seed)
	return c.craftFlights.get(ctx, key, func() (*tensor.T, bool, error) {
		if key.epsQ == 0 {
			// The eps=0 cell of every attack's sweep is the stacked
			// clean inputs — attack- and seed-independent (all attacks
			// are the identity at zero budget, pinned by the attack
			// tests) and too cheap for a craft span or a disk probe.
			return tensor.Stack(t.test.X), false, nil
		}
		return c.craftMiss(ctx, t, key, eps, opts)
	})
}

// craftMiss is the leader's side of a crafted-batch miss: the disk
// probe, then the compute, written through.
func (c *Cache) craftMiss(ctx context.Context, t *CraftTarget, key craftKey, eps float64, opts Options) (*tensor.T, bool, error) {
	// A memory miss is the start of the craft stage: the span (and the
	// craft histogram) covers the disk probe plus any recompute, and
	// every disk touch below nests under it.
	ctx, span := obs.Start(ctx, "craft",
		obs.Attr{Key: "attack", Value: key.attack},
		obs.Attr{Key: "eps", Value: strconv.FormatFloat(eps, 'g', -1, 64)})
	defer func() { craftHist.Observe(span.End()) }()
	test := t.test
	var dkey string
	if c.disk != nil {
		dkey = craftDiskKey(t, key.epsQ, key.seed)
		want := append([]int{test.Len()}, test.X[0].Shape...)
		if b, ok := diskProbe(ctx, c, &c.diskCraft, dkey, func(val []byte) (*tensor.T, bool) {
			b, err := decodeTensor(val)
			return b, err == nil && slices.Equal(b.Shape, want)
		}); ok {
			// A disk hit is an artifact served with zero recompute, which
			// is what hit means to callers (CellTiming.CacheHit, events).
			return b, true, nil
		}
	}

	var out *tensor.T
	if sa, ok := t.atk.(attack.SetAttack); ok {
		// Set-level attacks (UAP) craft one image-agnostic perturbation
		// over the whole set, so there is nothing to chunk across
		// workers: one PerturbSet call, one rng stream per (eps, seed) —
		// independent of worker count and batch size, so two runs with
		// the same seed memoise bit-identical batches. Cancellation is
		// observed inside PerturbSet at chunk granularity; the partial
		// result is discarded below, never memoised.
		rng := rand.New(rand.NewSource(key.seed*1_000_003 + key.epsQ*7_919))
		out = sa.PerturbSet(ctx, t.src, tensor.Stack(test.X), test.Y, eps, rng)
	} else {
		n := test.Len()
		batk := attack.AsBatch(t.atk)
		out = tensor.New(append([]int{n}, test.X[0].Shape...)...)
		runChunked(ctx, n, opts, func(lo, hi int) {
			xs := tensor.Stack(test.X[lo:hi])
			rngs := make([]*rand.Rand, hi-lo)
			for i := range rngs {
				// Per-sample stream keyed by (seed, sample, eps):
				// independent of batch chunking and sweep shape, so cached
				// and freshly crafted batches agree bit for bit.
				rngs[i] = rand.New(rand.NewSource(key.seed + int64(lo+i)*1_000_003 + key.epsQ*7_919))
			}
			crafted := batk.PerturbBatch(t.src, xs, test.Y[lo:hi], eps, rngs)
			copy(out.RowView(lo, hi).Data, crafted.Data)
		})
	}
	if err := ctx.Err(); err != nil {
		// Partial batches must never be memoised.
		return nil, false, err
	}
	if dkey != "" {
		c.diskPut(ctx, dkey, encodeTensor(out))
	}
	return out, false, nil
}

// CraftedCached reports whether CraftedBatch would return the cell's
// batch without crafting — the memory memo already holds it, or the
// persistent tier's index knows the key. Cell schedulers use it to
// prioritise hit cells over cold ones; a wrong answer only reorders
// work, so the disk probe is index-only (no read, no decode, no
// shape check).
func (c *Cache) CraftedCached(t *CraftTarget, eps float64, opts Options) bool {
	if t.test.Len() == 0 {
		return false
	}
	epsQ := EpsKey(eps)
	if c.craftFlights.has(t.key(epsQ, opts.Seed)) {
		return true
	}
	return epsQ != 0 && c.disk != nil && c.disk.Has(craftDiskKey(t, epsQ, opts.Seed))
}

// Predictions scores one victim over the crafted batch, using the
// batched path when the model supports it and memoising per (victim,
// batch). hit, coalescing and cancellation behave as in CraftedBatch
// (coalesced calls count in CacheStats.PredCoalesced).
func (c *Cache) Predictions(ctx context.Context, m attack.Model, adv *tensor.T, opts Options) (preds []int, hit bool, err error) {
	id, _, err := c.batchIDs.get(ctx, adv, func() (batchID, bool, error) { return newBatchID(adv), false, nil })
	if err != nil {
		return nil, false, err
	}
	key := predKey{batch: id}
	if mk, ok := m.(ModelKeyer); ok {
		key.key = mk.ModelKey()
	} else {
		key.model = m
		if f, ok := m.(fingerprinter); ok {
			key.modelFP = f.WeightsFingerprint()
		}
	}
	return c.predFlights.get(ctx, key, func() ([]int, bool, error) {
		return c.predictMiss(ctx, m, adv, id, opts)
	})
}

// predictMiss is the leader's side of a prediction miss: the disk
// probe, then victim scoring, written through.
func (c *Cache) predictMiss(ctx context.Context, m attack.Model, adv *tensor.T, id batchID, opts Options) ([]int, bool, error) {
	ctx, span := obs.Start(ctx, "predict")
	defer func() { predictHist.Observe(span.End()) }()
	var dkey string
	if c.disk != nil {
		// Models without a stable content identity (no ModelKey or
		// weights fingerprint) stay memory-tier only.
		if dk, ok := predDiskKey(m, adv.Rows(), id.fp); ok {
			dkey = dk
			if ps, ok := diskProbe(ctx, c, &c.diskPred, dkey, func(val []byte) ([]int, bool) {
				ps, err := decodePreds(val)
				return ps, err == nil && len(ps) == adv.Rows()
			}); ok {
				return ps, true, nil
			}
		}
	}
	n := adv.Rows()
	preds := make([]int, n)
	bm, batched := m.(attack.BatchModel)
	runChunked(ctx, n, opts, func(lo, hi int) {
		if batched {
			copy(preds[lo:hi], tensor.ArgMaxRows(bm.LogitsBatch(adv.RowView(lo, hi))))
		} else {
			for i := lo; i < hi; i++ {
				preds[i] = tensor.ArgMax(m.Logits(adv.Row(i)))
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if dkey != "" {
		c.diskPut(ctx, dkey, encodePreds(preds))
	}
	return preds, false, nil
}

// runChunked fans fn over [0, n) in opts-derived chunks across
// opts-derived workers.
func runChunked(ctx context.Context, n int, opts Options, fn func(lo, hi int)) {
	RunChunked(ctx, n, opts.batchSize(n), opts.workers(), fn)
}

// RunChunked fans fn over [0, n) in chunk-sized ranges across workers,
// stopping at the next chunk boundary once ctx is cancelled (returned
// as the error). Non-positive chunk and workers select 1 and
// GOMAXPROCS (the repo-wide "0 = default" convention), so an
// un-defaulted config can never silently run zero workers. It returns
// only after every worker has exited, so callers never leak
// goroutines into cancelled sweeps. Exported for the other chunked
// crafting loops in the tree (defense.AdvTrain) so the
// fan-out/cancellation semantics live in one place.
func RunChunked(ctx context.Context, n, chunk, workers int, fn func(lo, hi int)) error {
	if chunk < 1 {
		chunk = 1
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + chunk - 1) / chunk; workers > max {
		workers = max
	}
	done := ctx.Done()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				lo := next
				next += chunk
				mu.Unlock()
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

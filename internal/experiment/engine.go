package experiment

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/modelzoo"
	"repro/internal/obs"
)

// Engine executes Specs. Each engine owns its crafted-batch and
// prediction caches (core.Cache), so two engines never interfere and
// repeated or overlapping cells within one engine — the shared eps=0
// clean row across attacks, identical cells across Runs — are served
// from the memo. The zero Engine is not usable; construct with New.
type Engine struct {
	cache    *core.Cache
	onEvent  func(Event)
	getModel func(context.Context, string) (*modelzoo.Model, error)
	exec     Executor
}

// Option configures an Engine.
type Option func(*Engine)

// WithCache replaces the engine's owned cache — e.g. to share one
// cache between engines deliberately, or to bound retention via
// core.CacheConfig.
func WithCache(c *core.Cache) Option {
	return func(e *Engine) { e.cache = c }
}

// WithProgress registers a callback receiving progress events (cell
// started/finished, cache hit/miss). Under the default serial executor
// events are emitted synchronously, in plan order, from one goroutine;
// a parallel executor emits them from its workers as cells complete,
// so the callback must be safe for concurrent use and interleaving
// (Event.Cell still carries each cell's stable plan position).
func WithProgress(fn func(Event)) Option {
	return func(e *Engine) { e.onEvent = fn }
}

// WithModelSource replaces the model resolver (default
// modelzoo.GetCtx) — primarily for tests, which inject small
// purpose-trained fixtures instead of the full zoo models. The
// context is Run's: sources that train on demand (hardened derived
// models) observe cancellation through it.
func WithModelSource(fn func(context.Context, string) (*modelzoo.Model, error)) Option {
	return func(e *Engine) { e.getModel = fn }
}

// WithExecutor replaces the executor Run hands compiled plans to
// (default: a serial LocalExecutor). nil keeps the default.
func WithExecutor(x Executor) Option {
	return func(e *Engine) {
		if x != nil {
			e.exec = x
		}
	}
}

// New returns an engine with a fresh owned cache and a serial local
// executor.
func New(opts ...Option) *Engine {
	e := &Engine{
		cache:    core.NewCache(core.CacheConfig{}),
		getModel: modelzoo.GetCtx,
		exec:     &LocalExecutor{},
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Cache exposes the engine's cache, chiefly so tests can assert
// isolation and callers can Clear it after retraining models in
// place.
func (e *Engine) Cache() *core.Cache { return e.cache }

func (e *Engine) emit(ev Event) {
	if e.onEvent != nil {
		if ev.Time.IsZero() {
			//axvet:ignore determinism -- observability timestamp on the event envelope; never in report rows, and merge-equivalence tests normalize Time
			ev.Time = time.Now()
		}
		e.onEvent(ev)
	}
}

// Run executes the suite declared by spec: it compiles the spec into
// its cell plan, binds the plan to resolved models and built victims,
// and hands it to the engine's executor — one Grid per attack, crafted
// batches and victim predictions deduplicated through the engine's
// cache. Cancellation via ctx is observed at cell and chunk
// granularity; Run then returns ctx.Err() with no partial results
// memoised and no goroutines leaked.
//
// Every paper artefact runs through here, as a spec; there is no
// second sweep path. The executor — serial or parallel
// LocalExecutor, or a ShardExecutor farming grids out to peer nodes —
// only changes where and in what order cells run, never the protocol;
// every executor assembles the Report through the same plan-order
// path, so the bytes don't depend on the executor either.
func (e *Engine) Run(ctx context.Context, spec *Spec) (*Report, error) {
	_, sp := obs.Start(ctx, "plan")
	plan, err := spec.Plan()
	sp.End()
	if err != nil {
		return nil, err
	}
	return e.RunPlan(ctx, plan)
}

// RunPlan binds an already-compiled plan (possibly restricted to a
// subset of its grids — the shard server's path) and executes it.
func (e *Engine) RunPlan(ctx context.Context, plan *Plan) (*Report, error) {
	// bind gets its own span (model resolution can train hardened
	// victims on first use); Execute keeps the original ctx so grid
	// spans parent directly under the caller's suite span.
	_, sp := obs.Start(ctx, "bind")
	run, err := e.bind(ctx, plan)
	sp.End()
	if err != nil {
		return nil, err
	}
	return e.exec.Execute(ctx, run)
}

// bind resolves everything a plan needs at runtime: the source (and,
// for transfer suites, victim) model, the AxDNN victims plus
// defense-appended columns, the sliced test set, and one attack
// instance per plan grid.
func (e *Engine) bind(ctx context.Context, plan *Plan) (*PlanRun, error) {
	spec := plan.spec
	src, err := e.getModel(ctx, spec.Model)
	if err != nil {
		return nil, err
	}
	vic := src
	if spec.victimModel() != spec.Model {
		if vic, err = e.getModel(ctx, spec.victimModel()); err != nil {
			return nil, err
		}
	}
	qopts := axnn.Options{Bits: spec.Bits, ApproxDense: spec.ApproxDense}
	// Only the real designs compile (a float-only suite compiles
	// nothing); the float column, if declared, goes back in at its
	// place in the list.
	mults := spec.ExpandMultipliers()
	fi := slices.Index(mults, FloatVictim)
	if fi >= 0 {
		mults = slices.Delete(mults, fi, fi+1)
	}
	var victims []core.Victim
	if len(mults) > 0 {
		if victims, err = e.cache.AxVictims(vic.Net, vic.Test, mults, qopts); err != nil {
			return nil, err
		}
	}
	if fi >= 0 {
		victims = slices.Insert(victims, fi, core.NewVictim(FloatVictim, vic.Net))
	}
	test := vic.Test.Slice(spec.Samples)
	if test.Len() == 0 {
		return nil, fmt.Errorf("experiment: %s has no test samples", spec.victimModel())
	}

	byName := make(map[string]attack.Attack, len(spec.Attacks)+1)
	for i, a := range spec.attackList() {
		byName[spec.Attacks[i]] = a
	}
	needEOT := false
	for _, g := range plan.Grids {
		if g == EOTGridName {
			needEOT = true
		}
	}
	// The defense block appends its victim columns whatever grids the
	// plan covers — a restricted shard must evaluate the same columns
	// as the full suite — and builds the adaptive EOT attack only when
	// the plan includes its grid.
	if d := spec.Defense; d != nil {
		if d.Has(DefenseAdvTrain) {
			// Defenses defend the victim: the hardened model derives
			// from the victim-side base (relevant in transfer suites).
			// Resolving it through the engine's model source means
			// axserve jobs train (and the zoo persists) hardened
			// weights on first use, and tests inject fixtures.
			hid := defense.HardenedID(spec.victimModel(), d.AdvTrainConfig(spec.Seed))
			hm, err := e.getModel(ctx, hid)
			if err != nil {
				return nil, err
			}
			victims = append(victims, core.NewVictim(d.AdvTrainVictimName(), hm.Net))
		}
		if d.Has(DefenseEnsemble) {
			ens, err := defense.BuildEnsemble(e.cache, vic.Net, vic.Test, d.ExpandPool(), qopts, spec.Seed)
			if err != nil {
				return nil, err
			}
			victims = append(victims, core.NewVictim(ens.Name(), ens))
			if d.EOTSamples > 0 && needEOT {
				byName[EOTGridName] = attack.NewEOT(ens, attack.Linf, d.EOTSamples)
			}
		}
	}

	targets := make([]*core.CraftTarget, len(plan.Grids))
	for gi, name := range plan.Grids {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("experiment: plan grid %q has no attack", name)
		}
		targets[gi] = core.NewCraftTarget(src.Net, test, a)
	}

	names := make([]string, len(victims))
	models := make([]attack.Model, len(victims))
	for i, v := range victims {
		names[i] = v.Name
		models[i] = v.Factory()
	}

	return &PlanRun{
		plan:     plan,
		dataset:  vic.Test.Name,
		cleanAcc: src.CleanAcc,
		test:     test,
		targets:  targets,
		names:    names,
		models:   models,
		opts: core.Options{
			Samples: spec.Samples,
			Seed:    spec.Seed,
			Workers: spec.Workers,
			Batch:   spec.Batch,
		},
		cache: e.cache,
		emit:  e.emit,
	}, nil
}

func cacheKind(hit bool) Kind {
	if hit {
		return CacheHit
	}
	return CacheMiss
}

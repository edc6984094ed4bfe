package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/tensor"
)

// gate blocks the first call that passes through it until release is
// closed, and counts every call.
type gate struct {
	calls   atomic.Int64
	release chan struct{}
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) pass() {
	if g.calls.Add(1) == 1 {
		<-g.release
	}
}

// countingAttack is FGM-linf with its PerturbBatch calls counted and the
// first one held at a gate.
type countingAttack struct {
	attack.Attack
	g *gate
}

func (a countingAttack) PerturbBatch(m attack.Model, xs *tensor.T, labels []int, eps float64, rngs []*rand.Rand) *tensor.T {
	a.g.pass()
	return a.Attack.PerturbBatch(m, xs, labels, eps, rngs)
}

// countingModel is a victim with its LogitsBatch calls counted and the
// first one held at a gate.
type countingModel struct {
	m *axnn.Network
	g *gate
}

func (c *countingModel) LogitsBatch(xs *tensor.T) *tensor.T {
	c.g.pass()
	return c.m.LogitsBatch(xs)
}

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// One chunk per batch, so a batch costs exactly one PerturbBatch (or
// LogitsBatch) call.
var flightOpts = Options{Seed: 11, Workers: 1, Batch: 16}

const flightEps = 0.1

func flightTarget(t *testing.T) (*CraftTarget, *gate) {
	f := getFixture(t)
	g := newGate()
	atk := countingAttack{attack.ByName("FGM-linf"), g}
	return NewCraftTarget(f.net, f.test.Slice(16), atk), g
}

// craftResult is one CraftedBatch call's outcome.
type craftResult struct {
	adv *tensor.T
	hit bool
	err error
}

func TestCraftedBatchCoalescesConcurrentMisses(t *testing.T) {
	const callers = 8
	c := NewCache(CacheConfig{})
	target, g := flightTarget(t)
	key := target.key(EpsKey(flightEps), flightOpts.Seed)
	res := make([]craftResult, callers)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &res[i]
			r.adv, r.hit, r.err = c.CraftedBatch(context.Background(), target, flightEps, flightOpts)
		}()
	}
	// Hold the leader until every other caller has joined its flight.
	waitFor(t, "waiters to join", func() bool { return c.craftFlights.waiting(key) == callers-1 })
	close(g.release)
	wg.Wait()
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran PerturbBatch %d times, want 1", callers, n)
	}
	misses := 0
	for i, r := range res {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.adv != res[0].adv {
			t.Fatalf("caller %d got a different batch", i)
		}
		if !r.hit {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers reported a miss, want only the leader", misses)
	}
	st := c.Stats()
	if st.CraftMisses != callers || st.CraftCoalesced != callers-1 || st.CraftEntries != 1 {
		t.Fatalf("stats %+v, want %d misses, %d coalesced, 1 entry", st, callers, callers-1)
	}
}

func TestPredictionsCoalesceConcurrentMisses(t *testing.T) {
	const callers = 8
	f := getFixture(t)
	victims, err := BuildAxVictims(f.net, f.test, []string{"mul8u_JV3"}, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	m := &countingModel{m: victims[0].Factory().(*axnn.Network), g: g}
	c := NewCache(CacheConfig{})
	adv, _, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, f.test.Slice(16), attack.ByName("FGM-linf")), flightEps, flightOpts)
	if err != nil {
		t.Fatal(err)
	}
	key := predKey{model: m, batch: newBatchID(adv)}
	preds := make([][]int, callers)
	hits := make([]bool, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range preds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			preds[i], hits[i], errs[i] = c.Predictions(context.Background(), m, adv, flightOpts)
		}()
	}
	waitFor(t, "waiters to join", func() bool { return c.predFlights.waiting(key) == callers-1 })
	close(g.release)
	wg.Wait()
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran LogitsBatch %d times, want 1", callers, n)
	}
	for i := range preds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(preds[i], preds[0]) {
			t.Fatalf("caller %d got different predictions", i)
		}
	}
	if misses := slices.Index(hits, false); misses < 0 || slices.Index(hits[misses+1:], false) >= 0 {
		t.Fatalf("hits %v, want exactly one miss (the leader)", hits)
	}
	if st := c.Stats(); st.PredMisses != callers || st.PredCoalesced != callers-1 {
		t.Fatalf("stats %+v, want %d misses and %d coalesced", st, callers, callers-1)
	}
}

// TestCancelledLeaderHandsOver: a waiter does not inherit its leader's
// cancellation. It crafts the batch itself, and nothing of the
// cancelled attempt is memoised.
func TestCancelledLeaderHandsOver(t *testing.T) {
	c := NewCache(CacheConfig{})
	target, g := flightTarget(t)
	key := target.key(EpsKey(flightEps), flightOpts.Seed)
	lctx, cancel := context.WithCancel(context.Background())
	var leader, waiter craftResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader.adv, leader.hit, leader.err = c.CraftedBatch(lctx, target, flightEps, flightOpts)
	}()
	waitFor(t, "the leader to craft", func() bool { return g.calls.Load() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiter.adv, waiter.hit, waiter.err = c.CraftedBatch(context.Background(), target, flightEps, flightOpts)
	}()
	waitFor(t, "the waiter to join", func() bool { return c.craftFlights.waiting(key) == 1 })
	cancel()
	close(g.release)
	wg.Wait()

	if !errors.Is(leader.err, context.Canceled) || leader.adv != nil {
		t.Fatalf("cancelled leader returned (%v, %v), want (nil, context.Canceled)", leader.adv, leader.err)
	}
	if waiter.err != nil || waiter.hit {
		t.Fatalf("waiter returned hit=%v err=%v, want a fresh craft", waiter.hit, waiter.err)
	}
	if n := g.calls.Load(); n != 2 {
		t.Fatalf("PerturbBatch ran %d times, want 2 (cancelled leader, then the waiter)", n)
	}
	fresh, _ := flightTarget(t)
	close(fresh.atk.(countingAttack).g.release)
	want, _, err := NewCache(CacheConfig{}).CraftedBatch(context.Background(), fresh, flightEps, flightOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(waiter.adv.Data, want.Data) {
		t.Fatal("the waiter's batch differs from a fresh craft")
	}
	memo, hit, err := c.CraftedBatch(context.Background(), target, flightEps, flightOpts)
	if err != nil || !hit || memo != waiter.adv || c.CraftedLen() != 1 {
		t.Fatalf("memo holds %d batches (hit=%v, err=%v), want exactly the waiter's", c.CraftedLen(), hit, err)
	}
	if st := c.Stats(); st.CraftCoalesced != 0 {
		t.Fatalf("a retried leader counted as coalesced: %+v", st)
	}
}

// TestCancelledWaiterLeavesAlone: a waiter whose ctx is cancelled
// returns at once with ctx.Err(), while the leader finishes and
// memoises.
func TestCancelledWaiterLeavesAlone(t *testing.T) {
	c := NewCache(CacheConfig{})
	target, g := flightTarget(t)
	key := target.key(EpsKey(flightEps), flightOpts.Seed)
	var leader craftResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		leader.adv, leader.hit, leader.err = c.CraftedBatch(context.Background(), target, flightEps, flightOpts)
	}()
	waitFor(t, "the leader to craft", func() bool { return g.calls.Load() == 1 })
	wctx, cancel := context.WithCancel(context.Background())
	werr := make(chan error)
	go func() {
		_, _, err := c.CraftedBatch(wctx, target, flightEps, flightOpts)
		werr <- err
	}()
	waitFor(t, "the waiter to join", func() bool { return c.craftFlights.waiting(key) == 1 })
	cancel()
	// The leader is still held at the gate: the waiter must not wait
	// for it.
	if err := <-werr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(g.release)
	<-done
	if leader.err != nil || leader.hit {
		t.Fatalf("leader returned hit=%v err=%v", leader.hit, leader.err)
	}
	memo, hit, err := c.CraftedBatch(context.Background(), target, flightEps, flightOpts)
	if err != nil || !hit || memo != leader.adv {
		t.Fatalf("leader's batch not memoised (hit=%v, err=%v)", hit, err)
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("PerturbBatch ran %d times, want 1", n)
	}
}

// TestAxVictimsCompileOnce: concurrent victim builds over one source
// and quantization, whatever their multiplier subsets, share one
// compile; a different configuration compiles its own.
func TestAxVictimsCompileOnce(t *testing.T) {
	f := getFixture(t)
	c := NewCache(CacheConfig{})
	names := axmult.MNISTSet()
	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subset := []string{names[i%len(names)], names[(i+3)%len(names)]}
			victims, err := c.AxVictims(f.net, f.test, subset, axnn.Options{})
			if err == nil && (len(victims) != 2 || victims[0].Name != subset[0]) {
				err = fmt.Errorf("victims %v for subset %v", victims, subset)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Compiles != 1 || st.CompileHits != callers-1 {
		t.Fatalf("compiles %d, hits %d; want 1 and %d", st.Compiles, st.CompileHits, callers-1)
	}
	if _, err := c.AxVictims(f.net, f.test, names[:1], axnn.Options{Bits: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AxVictims(f.net, f.test, []string{"mul8u_NOPE"}, axnn.Options{}); err == nil {
		t.Fatal("unknown multiplier accepted")
	}
	if st := c.Stats(); st.Compiles != 2 {
		t.Fatalf("a second configuration made %d compiles in total, want 2", st.Compiles)
	}
	c.Clear()
	if _, err := c.AxVictims(f.net, f.test, names[:1], axnn.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Compiles != 3 {
		t.Fatalf("Clear kept the compiled victims: %d compiles, want 3", st.Compiles)
	}
}

// TestAxVictimsMatchFreshBuild: memoised victims predict exactly as
// freshly compiled ones for every registered multiplier, and the exact
// design's column equals the quantized accurate network's.
func TestAxVictimsMatchFreshBuild(t *testing.T) {
	f := getFixture(t)
	test := f.test.Slice(24)
	c := NewCache(CacheConfig{})
	names := axmult.Names()
	// Warm the memo with another subset first, so the victims below
	// come from it.
	if _, err := c.AxVictims(f.net, f.test, names[:1], axnn.Options{}); err != nil {
		t.Fatal(err)
	}
	memo, err := c.AxVictims(f.net, f.test, names, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildAxVictims(f.net, f.test, names, axnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Compiles != 1 {
		t.Fatalf("memo compiled %d times, want 1", st.Compiles)
	}
	adv, _, err := c.CraftedBatch(context.Background(), NewCraftTarget(f.net, test, attack.ByName("FGM-linf")), 0.1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	predict := func(v Victim) []int {
		// A fresh cache per call: the memo must not answer for the
		// victim under test.
		p, _, err := NewCache(CacheConfig{}).Predictions(context.Background(), v.Factory(), adv, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i, name := range names {
		if memo[i].Name != name || fresh[i].Name != name {
			t.Fatalf("victim %d is %s/%s, want %s", i, memo[i].Name, fresh[i].Name, name)
		}
		if got, want := predict(memo[i]), predict(fresh[i]); !slices.Equal(got, want) {
			t.Fatalf("%s: memoised victim predicts %v, fresh %v", name, got, want)
		}
	}
	// The quantized accurate DNN: an explicit 8-bit compile on the
	// default (exact) multiplier.
	q8, err := axnn.Compile(f.net, f.test.Inputs(calibSamples), axnn.Options{Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	exact := slices.Index(names, "mul8u_1JFF")
	if got, want := predict(memo[exact]), predict(NewVictim("q8", q8)); !slices.Equal(got, want) {
		t.Fatalf("memoised exact design predicts %v, quantized accurate %v", got, want)
	}
}

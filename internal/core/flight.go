package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// memo is one memoised artifact kind of a Cache — crafted batches,
// victim predictions, compiled victims — and get is its whole lookup
// path. It is a map of finished values behind a per-key in-flight
// table, so overlapping jobs compute each distinct artifact once, and
// it is bounded by an epoch reset: a store whose cost would take the
// retained total past limit first drops every entry. The zero value
// (with limit set) is ready to use.
type memo[K comparable, V any] struct {
	flights[K, memoed[V]]
	vals sync.Map // K -> V
	used atomic.Int64
	// limit bounds used. cost is a value's charge against it; nil
	// charges 1 per entry.
	limit int64
	cost  func(V) int64
	// reset, when set, runs on every epoch reset, before the entries
	// are dropped.
	reset func()

	// Lifetime counters: monotone, so clear and the epoch resets never
	// touch them. misses counts memory lookups that missed; coalesced
	// is the subset of them that waited on another call's miss and
	// computed nothing.
	hits, misses, coalesced, evictions atomic.Int64
}

// memoed is a miss's outcome as its leader produced it; hit reports a
// value served without compute (from the disk tier, or stored by a
// leader that finished just before this one started).
type memoed[V any] struct {
	val V
	hit bool
}

// get returns key's value, running miss to produce it on a memory
// miss. hit reports whether the value came without compute by this
// call: a memory hit, a wait on a concurrent call's miss, or miss's own
// report (a disk-tier hit). Only one miss per key runs at a time, and
// its value is stored before the calls waiting on it wake; a failed
// miss stores nothing. Waiters and cancellation behave as in
// flights.do.
func (m *memo[K, V]) get(ctx context.Context, key K, miss func() (V, bool, error)) (val V, hit bool, err error) {
	if v, ok := m.vals.Load(key); ok {
		m.hits.Add(1)
		return v.(V), true, nil
	}
	m.misses.Add(1)
	if err := ctx.Err(); err != nil {
		return val, false, err
	}
	r, led, err := m.do(ctx, key, func() (memoed[V], error) {
		if v, ok := m.vals.Load(key); ok {
			return memoed[V]{v.(V), true}, nil
		}
		v, hit, err := miss()
		if err != nil {
			return memoed[V]{}, err
		}
		return memoed[V]{m.store(key, v), hit}, nil
	})
	if err != nil {
		return val, false, err
	}
	if !led {
		m.coalesced.Add(1)
		return r.val, true, nil
	}
	return r.val, r.hit, nil
}

// store memoises one value, starting a new epoch first when its cost
// would exceed the limit. It returns the retained value: should two
// calls ever store one key, both converge on the first stored value
// and the cost counts once.
func (m *memo[K, V]) store(key K, v V) V {
	cost := int64(1)
	if m.cost != nil {
		cost = m.cost(v)
	}
	if m.used.Load()+cost > m.limit {
		m.evictions.Add(1)
		if m.reset != nil {
			m.reset()
		}
		m.clear()
	}
	if prev, loaded := m.vals.LoadOrStore(key, v); loaded {
		return prev.(V)
	}
	m.used.Add(cost)
	return v
}

// clear drops every entry. It is not an eviction: the counters stay.
func (m *memo[K, V]) clear() {
	m.vals.Clear()
	m.used.Store(0)
}

func (m *memo[K, V]) has(key K) bool {
	_, ok := m.vals.Load(key)
	return ok
}

func (m *memo[K, V]) len() int {
	n := 0
	m.vals.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// flights is a per-key in-flight table (singleflight): the first
// caller of do for a key leads and runs the computation, and callers
// arriving while it runs wait for the leader's result instead of
// computing it again. Every memo puts its misses behind one. The zero
// value is ready to use.
type flights[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// flight is one in-progress computation. val and err are written by
// the leader before done closes and only read after it.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int // guarded by flights.mu
}

// do returns fn's result for key, running fn only if no other call for
// key is in flight. led reports whether this caller ran fn.
//
// A waiter whose own ctx is cancelled returns ctx.Err() alone; the
// leader carries on. When the leader fails with a context error (its
// own cancellation), its waiters do not inherit that error: they race
// to lead a fresh attempt, so exactly one of them recomputes. Any other
// leader error is shared, since a retry would fail the same way.
func (f *flights[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (val V, led bool, err error) {
	for {
		f.mu.Lock()
		if fl, ok := f.m[key]; ok {
			fl.waiters++
			f.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
			if fl.err != nil && isCtxErr(fl.err) {
				if err := ctx.Err(); err != nil {
					return val, false, err
				}
				continue
			}
			return fl.val, false, fl.err
		}
		fl := &flight[V]{done: make(chan struct{})}
		if f.m == nil {
			f.m = make(map[K]*flight[V])
		}
		f.m[key] = fl
		f.mu.Unlock()

		func() {
			// Release the waiters even if fn panics; they then see
			// errLeaderPanicked rather than a zero value.
			defer func() {
				f.mu.Lock()
				delete(f.m, key)
				f.mu.Unlock()
				close(fl.done)
			}()
			fl.err = errLeaderPanicked
			fl.val, fl.err = fn()
		}()
		return fl.val, true, fl.err
	}
}

// waiting reports how many callers have joined key's in-flight
// computation (0 when none is in flight). Tests use it to order a
// waiter's arrival against its leader.
func (f *flights[K, V]) waiting(key K) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.m[key]; ok {
		return fl.waiters
	}
	return 0
}

var errLeaderPanicked = errors.New("core: the computation this call waited on panicked")

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

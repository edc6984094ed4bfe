package core

import (
	"context"
	"errors"
	"sync"
)

// flights is a per-key in-flight table (singleflight): the first
// caller of do for a key leads and runs the computation, and callers
// arriving while it runs wait for the leader's result instead of
// computing it again. The cache puts every memory miss — crafted
// batches, victim predictions, compiled victims — behind one, so
// overlapping jobs compute each distinct artifact once. The zero value
// is ready to use.
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

package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/store"
)

// TestRaceWALReplayConcurrentSubmit hammers the restart path the
// -race job previously never saw: a manager replaying a crashed job
// from its WAL while clients concurrently Submit the same spec
// (dedup onto the resuming job), Submit fresh work, poll Status, and
// subscribe to the event stream. Everything must converge on done
// jobs with the resumed report identical to an undisturbed run.
func TestRaceWALReplayConcurrentSubmit(t *testing.T) {
	wal := openWAL(t, t.TempDir())
	spec := tinySpec()
	id, err := JobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Crash fixture, exactly what a process killed mid-run leaves
	// behind: spec, non-terminal state, orphan events.
	canonical, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w := newJobLog(wal, id)
	w.putSpec(canonical)
	w.putState(walState{State: StateQueued, Submitted: time.Now()})
	w.putEvent(experiment.Event{Kind: experiment.SuiteStarted, Job: id, Cells: spec.CellCount()})
	w.putEvent(experiment.Event{Kind: experiment.CellStarted, Job: id, Attack: "FGM-linf"})

	// Opening the manager starts the resume; every client below races
	// it from the first instant.
	m := newTestManager(t, Config{Workers: 2, Log: wal})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	other := tinySpec()
	other.Name = "service-test-race-b"

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Same spec as the resuming job: must dedup, never fork a
			// second run of the same ID.
			gotID, created, err := m.Submit(tinySpec())
			if err != nil {
				errs <- err
				return
			}
			if created {
				errs <- errDuplicateRun{gotID}
				return
			}
			if _, err := m.Wait(ctx, gotID); err != nil {
				errs <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Fresh work interleaved with the replayed job.
		otherID, _, err := m.Submit(other)
		if err != nil {
			errs <- err
			return
		}
		if _, err := m.Wait(ctx, otherID); err != nil {
			errs <- err
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, err := m.Events(ctx, id)
			if err != nil {
				errs <- err
				return
			}
			for range ch {
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			if st, err := m.Status(id); err == nil && st.State.Terminal() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rep, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	// The raced, resumed run still reproduces the undisturbed grid.
	ref := newTestManager(t, Config{Workers: 1})
	refID, _, err := ref.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := ref.Wait(ctx, refID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportCSV(t, rep), reportCSV(t, refRep)) {
		t.Fatal("raced WAL resume produced a different grid than an undisturbed run")
	}
}

type errDuplicateRun struct{ id string }

func (e errDuplicateRun) Error() string {
	return "submit during WAL replay created a second run of job " + e.id
}

// TestRaceShardedMergeConcurrentReaders covers the sharded executor's
// merge path under the race detector: while node A farms one grid to
// its peer and merges the shard reports, concurrent clients re-Submit
// (dedup), Wait, stream events, and poll Status. All waiters must see
// one finished job and byte-identical report CSVs.
func TestRaceShardedMergeConcurrentReaders(t *testing.T) {
	shared, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shared.Close() })

	peer := newTestManager(t, Config{Workers: 1, Cache: core.NewCache(core.CacheConfig{Disk: shared})})
	peerSrv := httptest.NewServer(NewHandler(peer))
	t.Cleanup(peerSrv.Close)

	m := newTestManager(t, Config{
		Workers: 1,
		Cache:   core.NewCache(core.CacheConfig{Disk: shared}),
		Peers:   []string{peerSrv.URL},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	id, _, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	csvs := make(chan []byte, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotID, created, err := m.Submit(tinySpec())
			if err != nil {
				errs <- err
				return
			}
			if created || gotID != id {
				errs <- errDuplicateRun{gotID}
				return
			}
			rep, err := m.Wait(ctx, gotID)
			if err != nil {
				errs <- err
				return
			}
			var buf bytes.Buffer
			if err := rep.WriteCSV(&buf); err != nil {
				errs <- err
				return
			}
			csvs <- buf.Bytes()
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, err := m.Events(ctx, id)
			if err != nil {
				errs <- err
				return
			}
			for range ch {
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			st, err := m.Status(id)
			if err != nil {
				errs <- err
				return
			}
			if st.State.Terminal() {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(errs)
	close(csvs)
	for err := range errs {
		t.Fatal(err)
	}
	var first []byte
	for csv := range csvs {
		if first == nil {
			first = csv
			continue
		}
		if !bytes.Equal(first, csv) {
			t.Fatal("concurrent waiters saw different merged CSVs")
		}
	}
	if first == nil {
		t.Fatal("no waiter returned a report")
	}
	if m.Sched().Fallback.Load() != 0 {
		t.Fatal("healthy peer must not trigger fallback")
	}
}

// TestConcurrentJobsCompileOnce: 16 jobs over one model, with differing
// multiplier subsets, submitted at once to a manager running them
// concurrently, share one victim compile through the manager's cache.
func TestConcurrentJobsCompileOnce(t *testing.T) {
	m := newTestManager(t, Config{Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	designs := []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_L40", "mul8u_17KS"}
	const jobs = 16
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := tinySpec()
			spec.Attacks = []string{"FGM-linf"}
			spec.Multipliers = []string{designs[i%4], designs[(i%4+1+i/4%3)%4]}
			// Distinct sample counts make distinct jobs (no dedup); the
			// victims still calibrate on the same leading test samples.
			spec.Samples = 20 + i
			id, _, err := m.Submit(spec)
			if err == nil {
				_, err = m.Wait(ctx, id)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := m.Cache().Stats(); st.Compiles != 1 || st.Compiles+st.CompileHits != jobs {
		t.Fatalf("%d jobs made %d compiles and %d compile hits, want 1 and %d", jobs, st.Compiles, st.CompileHits, jobs-1)
	}
}

package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/store"
)

// normalizeTimings strips the execution-history fields from a report's
// cell timings. CacheHit/ElapsedMS depend on which node crafted what
// and in which order, so byte-identity across execution topologies is
// asserted on the normalized JSON; the CSV carries no timings.
func normalizeTimings(rep *experiment.Report) {
	for i := range rep.Cells {
		rep.Cells[i].CacheHit = false
		rep.Cells[i].ElapsedMS = 0
	}
}

// TestShardedSuiteMatchesLocal is the tentpole's acceptance criterion
// for multi-node execution: a two-node sharded run over a shared disk
// store produces a report whose CSV bytes and normalized JSON are
// identical to a single-node local run, with the scheduler counters
// attributing cells to the right nodes and the job's event stream
// covering every plan position exactly once.
func TestShardedSuiteMatchesLocal(t *testing.T) {
	// Both nodes mount one store instance as their cache's disk tier —
	// the in-process equivalent of two axserve processes sharing a
	// -data-dir — so a batch crafted on one shard is replayable on the
	// other.
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
	sharded, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	local, err := experiment.New(experiment.WithModelSource(fixtureSource(t))).Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	var shardedCSV, localCSV bytes.Buffer
	if err := sharded.WriteCSV(&shardedCSV); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardedCSV.Bytes(), localCSV.Bytes()) {
		t.Fatalf("sharded CSV diverged from a local run:\n--- sharded ---\n%s--- local ---\n%s", shardedCSV.Bytes(), localCSV.Bytes())
	}
	normalizeTimings(sharded)
	normalizeTimings(local)
	var shardedJSON, localJSON bytes.Buffer
	if err := sharded.WriteJSON(&shardedJSON); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteJSON(&localJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardedJSON.Bytes(), localJSON.Bytes()) {
		t.Fatalf("sharded normalized JSON diverged:\n--- sharded ---\n%s--- local ---\n%s", shardedJSON.Bytes(), localJSON.Bytes())
	}

	// The 2-grid suite split one grid per node: both nodes executed
	// cells locally, the sharding node counted the peer's as remote,
	// and nothing fell back.
	cellsPerGrid := int64(len(tinySpec().Eps))
	if got := m.Sched().Remote.Load(); got != cellsPerGrid {
		t.Fatalf("sharding node counted %d remote cells, want %d", got, cellsPerGrid)
	}
	if got := m.Sched().Local.Load(); got != cellsPerGrid {
		t.Fatalf("sharding node executed %d cells locally, want %d", got, cellsPerGrid)
	}
	if got := peer.Sched().Local.Load(); got != cellsPerGrid {
		t.Fatalf("peer executed %d cells, want %d", got, cellsPerGrid)
	}
	if m.Sched().Fallback.Load() != 0 {
		t.Fatal("healthy peer must not trigger fallback")
	}

	// The job's event stream covers every plan position exactly once,
	// remote cells included (replayed at their stable indices).
	plan, err := tinySpec().Plan()
	if err != nil {
		t.Fatal(err)
	}
	finished := map[int]int{}
	for _, ev := range collectEvents(t, m, id) {
		if ev.Kind == experiment.CellFinished {
			finished[ev.Cell]++
			if ev.Cells != plan.Total {
				t.Fatalf("event advertises %d cells, want plan total %d: %+v", ev.Cells, plan.Total, ev)
			}
		}
	}
	for idx := 1; idx <= plan.Total; idx++ {
		if finished[idx] != 1 {
			t.Fatalf("plan index %d finished %d times in the event stream, want exactly once", idx, finished[idx])
		}
	}
}

// TestShardPeerFailureFallsBackLocal: a dead peer degrades a sharded
// job to local execution of the peer's partition — the suite still
// completes with a correct report, and the fallback counter records
// the re-executed cells.
func TestShardPeerFailureFallsBackLocal(t *testing.T) {
	// An unroutable peer: connections fail fast, no server involved.
	m := newTestManager(t, Config{Workers: 1, Peers: []string{"http://127.0.0.1:1"}})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	id, _, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	local, err := experiment.New(experiment.WithModelSource(fixtureSource(t))).Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var repCSV, localCSV bytes.Buffer
	if err := rep.WriteCSV(&repCSV); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repCSV.Bytes(), localCSV.Bytes()) {
		t.Fatalf("fallback run's CSV diverged from a local run:\n--- fallback ---\n%s--- local ---\n%s", repCSV.Bytes(), localCSV.Bytes())
	}

	cellsPerGrid := int64(len(tinySpec().Eps))
	if got := m.Sched().Fallback.Load(); got != cellsPerGrid {
		t.Fatalf("fallback counter = %d, want the dead peer's %d cells", got, cellsPerGrid)
	}
	if m.Sched().Remote.Load() != 0 {
		t.Fatal("a dead peer must not count remote cells")
	}
	// Local counts its own partition plus the fallback cells.
	if got := m.Sched().Local.Load(); got != 2*cellsPerGrid {
		t.Fatalf("local counter = %d, want %d (own partition + fallback)", got, 2*cellsPerGrid)
	}
}

// TestSingleGridSuiteNeverShards: sharding is only worth a network
// hop when there is more than one grid; a 1-grid suite runs entirely
// locally even on a peer-configured manager.
func TestSingleGridSuiteNeverShards(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Peers: []string{"http://127.0.0.1:1"}})
	spec := tinySpec()
	spec.Attacks = []string{"FGM-linf"}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	if m.Sched().Remote.Load() != 0 || m.Sched().Fallback.Load() != 0 {
		t.Fatal("single-grid suite must not touch the sharded path")
	}
	// Nothing was sent out, so the trace is a local run's: no RPC, no merge.
	spans, err := m.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range spans {
		if sp.Name == "shard-rpc" || sp.Name == "merge" {
			t.Fatalf("single-grid trace has a %s span", sp.Name)
		}
	}
}

// TestShardEndpointNeverReshards: the shard endpoint executes its
// grids on a local-only engine even on a node that has peers of its
// own, so a shard never fans out again (or falls back) — here the
// node's one peer is unreachable, and both counters stay at zero.
func TestShardEndpointNeverReshards(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Peers: []string{"http://127.0.0.1:1"}})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	spec := tinySpec()
	rep, err := NewClient(srv.URL).ExecuteShard(ctx, spec, spec.Attacks)
	if err != nil {
		t.Fatal(err)
	}
	local, err := experiment.New(experiment.WithModelSource(fixtureSource(t))).Run(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var repCSV, localCSV bytes.Buffer
	if err := rep.WriteCSV(&repCSV); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repCSV.Bytes(), localCSV.Bytes()) {
		t.Fatalf("shard endpoint's CSV diverged from a local run:\n--- shard ---\n%s--- local ---\n%s", repCSV.Bytes(), localCSV.Bytes())
	}
	if got, want := m.Sched().Local.Load(), int64(len(rep.Cells)); got != want {
		t.Fatalf("shard endpoint executed %d cells locally, want %d", got, want)
	}
	if m.Sched().Remote.Load() != 0 || m.Sched().Fallback.Load() != 0 {
		t.Fatalf("shard endpoint re-sharded: remote=%d fallback=%d", m.Sched().Remote.Load(), m.Sched().Fallback.Load())
	}
}

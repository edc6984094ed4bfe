package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
)

// FuzzShardReply feeds arbitrary bytes to the sharding node as a
// peer's reply to the internal shard endpoint: they go through the
// Client's envelope decode, then the ShardExecutor's check against the
// local binding, and the suite is assembled. It must never panic, and
// whatever it accepts or falls back from must assemble a report with
// a cell timing per plan cell that encodes to CSV. The seed is a real
// envelope written by the shard handler for the grid a two-node run
// ships to its peer. Run it with
//
//	go test ./internal/service -run '^$' -fuzz FuzzShardReply -fuzztime 10s
func FuzzShardReply(f *testing.F) {
	src := fixtureSource(f)
	srv := httptest.NewServer(NewHandler(newTestManager(f, Config{Workers: 1})))
	defer srv.Close()

	spec := tinySpec()
	specJSON, err := spec.Encode()
	if err != nil {
		f.Fatal(err)
	}
	req, err := json.Marshal(shardRequest{Spec: specJSON, Grids: spec.Attacks[1:]})
	if err != nil {
		f.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/internal/v1/shard", "application/json", bytes.NewReader(req))
	if err != nil {
		f.Fatal(err)
	}
	envelope, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		f.Fatalf("shard endpoint: %s %v", resp.Status, err)
	}
	f.Add(envelope)
	f.Add([]byte(`{"report":null}`))

	// Bind the plan once, capturing the PlanRun on a local warm-up run,
	// so every iteration replays the same victims and the local part
	// and any fallback are all cache hits.
	var run *experiment.PlanRun
	capture := executorFunc(func(ctx context.Context, r *experiment.PlanRun) (*experiment.Report, error) {
		run = r
		return (&experiment.LocalExecutor{}).Execute(ctx, r)
	})
	if _, err := experiment.New(experiment.WithModelSource(src), experiment.WithExecutor(capture)).Run(context.Background(), spec); err != nil {
		f.Fatal(err)
	}
	// The fake peer answers every shard request with the current input;
	// iterations within one process run one at a time.
	var reply atomic.Pointer[[]byte]
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(*reply.Load())
	}))
	defer peer.Close()
	client := NewClient(peer.URL)
	f.Fuzz(func(t *testing.T, b []byte) {
		reply.Store(&b)
		x := &experiment.ShardExecutor{Peers: []experiment.Peer{client}}
		rep, err := x.Execute(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		if want := spec.CellCount(); len(rep.Cells) != want {
			t.Fatalf("report has %d cell timings, want %d", len(rep.Cells), want)
		}
		if err := rep.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// executorFunc adapts a function to experiment.Executor.
type executorFunc func(ctx context.Context, run *experiment.PlanRun) (*experiment.Report, error)

func (f executorFunc) Execute(ctx context.Context, run *experiment.PlanRun) (*experiment.Report, error) {
	return f(ctx, run)
}

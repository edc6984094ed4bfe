package experiment

import (
	"bytes"
	"context"
	"errors"
	"log"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/modelzoo"
	"repro/internal/obs"
)

// peerFunc adapts a function to Peer.
type peerFunc func(ctx context.Context, spec *Spec, grids []string) (*Report, error)

func (f peerFunc) ExecuteShard(ctx context.Context, spec *Spec, grids []string) (*Report, error) {
	return f(ctx, spec, grids)
}

// TestShardExecutorChecksPeerReports drives a two-node ShardExecutor
// through a fake peer that answers with a correct partial report, then
// with that report broken in each way the executor must catch before a
// peer row enters a cell state. An accepted report counts its cells as
// remote; a rejected one — like an unreachable peer — has its cells
// re-run locally and counted as fallback, with its cause on a
// shard-fallback span and in one log line; every rejection names a
// different cause. Either way the suite's CSV equals a local run's and
// every plan position finishes exactly once.
func TestShardExecutorChecksPeerReports(t *testing.T) {
	ctx := context.Background()
	src := fixtureSource(t)
	spec := tinySpec() // grids FGM-linf (local) and PGD-linf (peer)
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := plan.Restrict([]string{"PGD-linf"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := New(WithModelSource(src)).RunPlan(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	var goodJSON, localCSV bytes.Buffer
	if err := good.WriteJSON(&goodJSON); err != nil {
		t.Fatal(err)
	}
	if err := runWithExecutor(t, &LocalExecutor{}, nil).WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	peerCells := int64(len(sub.Cells))
	// One cache across the cases: only the first crafts.
	cache := core.NewCache(core.CacheConfig{})

	cases := []struct {
		name   string
		mutate func(*Report) *Report
		remote bool
	}{
		{name: "valid", remote: true},
		{name: "no report", mutate: func(*Report) *Report { return nil }},
		{name: "missing grid", mutate: func(r *Report) *Report { r.Grids = nil; return r }},
		{name: "duplicate grid", mutate: func(r *Report) *Report { r.Grids = append(r.Grids, r.Grids[0]); return r }},
		{name: "unrequested grid", mutate: func(r *Report) *Report { r.Grids[0].Attack = "FGM-linf"; return r }},
		{name: "null grid", mutate: func(r *Report) *Report { r.Grids[0] = nil; return r }},
		{name: "eps mismatch", mutate: func(r *Report) *Report { r.Grids[0].Eps = []float64{0, 0.2}; return r }},
		{name: "victim names", mutate: func(r *Report) *Report { r.Grids[0].Victims[1] = "mul8u_L40"; return r }},
		{name: "dataset", mutate: func(r *Report) *Report { r.Grids[0].Dataset = "other"; return r }},
		{name: "short acc row", mutate: func(r *Report) *Report { r.Grids[0].Acc[1] = r.Grids[0].Acc[1][:1]; return r }},
		{name: "missing acc row", mutate: func(r *Report) *Report { r.Grids[0].Acc = r.Grids[0].Acc[:1]; return r }},
		{name: "NaN", mutate: func(r *Report) *Report { r.Grids[0].Acc[0][0] = math.NaN(); return r }},
		{name: "infinite", mutate: func(r *Report) *Report { r.Grids[0].Acc[0][1] = math.Inf(1); return r }},
		{name: "above 100", mutate: func(r *Report) *Report { r.Grids[0].Acc[1][0] = 100.5; return r }},
		{name: "negative", mutate: func(r *Report) *Report { r.Grids[0].Acc[1][1] = -1; return r }},
		{name: "timing outside plan", mutate: func(r *Report) *Report { r.Cells[0].Eps = 0.3; return r }},
		{name: "timing of unrequested grid", mutate: func(r *Report) *Report { r.Cells[0].Attack = "FGM-linf"; return r }},
		{name: "duplicate timing", mutate: func(r *Report) *Report { r.Cells[1] = r.Cells[0]; return r }},
		{name: "missing timing", mutate: func(r *Report) *Report { r.Cells = r.Cells[:1]; return r }},
		{name: "negative elapsed", mutate: func(r *Report) *Report { r.Cells[0].ElapsedMS = -1; return r }},
		{name: "huge elapsed", mutate: func(r *Report) *Report { r.Cells[1].ElapsedMS = 1e300; return r }},
		{name: "NaN elapsed", mutate: func(r *Report) *Report { r.Cells[0].ElapsedMS = math.NaN(); return r }},
		{name: "clean accuracy skew", mutate: func(r *Report) *Report { r.CleanAcc++; return r }},
	}
	reasons := map[string]string{} // cause -> case
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := peerFunc(func(_ context.Context, got *Spec, grids []string) (*Report, error) {
				if got.Name != spec.Name || !reflect.DeepEqual(grids, []string{"PGD-linf"}) {
					t.Errorf("peer asked for %s %v, want %s [PGD-linf]", got.Name, grids, spec.Name)
				}
				rep, err := ReadReport(bytes.NewReader(goodJSON.Bytes()))
				if err != nil {
					return nil, err
				}
				if tc.mutate != nil {
					rep = tc.mutate(rep)
				}
				return rep, nil
			})
			reason := assertShardRun(t, src, cache, peer, localCSV.Bytes(), tc.remote, peerCells)
			if tc.remote {
				return
			}
			if prev, dup := reasons[reason]; dup {
				t.Fatalf("fallback cause %q is the same as case %q's", reason, prev)
			}
			reasons[reason] = tc.name
		})
	}
	t.Run("peer error", func(t *testing.T) {
		peer := peerFunc(func(context.Context, *Spec, []string) (*Report, error) {
			return nil, errors.New("connection refused")
		})
		if reason := assertShardRun(t, src, cache, peer, localCSV.Bytes(), false, peerCells); !strings.Contains(reason, "connection refused") {
			t.Fatalf("fallback cause %q does not carry the peer error", reason)
		}
	})
}

// assertShardRun runs tinySpec on a ShardExecutor over one peer and
// checks the CSV, the scheduler counters, the event stream, and that a
// fallback (and only a fallback) leaves one shard-fallback span and one
// log line under the run's trace ID. It returns the fallback's cause,
// "" when the peer part was accepted.
func assertShardRun(t *testing.T, src func(context.Context, string) (*modelzoo.Model, error), cache *core.Cache, peer Peer, wantCSV []byte, remote bool, peerCells int64) string {
	t.Helper()
	var sc SchedCounters
	var mu sync.Mutex
	finished := map[int]int{}
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)
	x := &ShardExecutor{Local: LocalExecutor{Counters: &sc}, Peers: []Peer{peer}}
	rec := obs.NewRecorder(0)
	rep, err := New(WithModelSource(src), WithCache(cache), WithExecutor(x), WithProgress(func(ev Event) {
		if ev.Kind == CellFinished {
			mu.Lock()
			finished[ev.Cell]++
			mu.Unlock()
		}
	})).Run(obs.WithRecorder(context.Background(), rec), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), wantCSV) {
		t.Fatalf("sharded CSV diverged from a local run:\n--- sharded ---\n%s--- local ---\n%s", csv.Bytes(), wantCSV)
	}
	wantRemote, wantFallback := peerCells, int64(0)
	if !remote {
		wantRemote, wantFallback = 0, peerCells
	}
	if got := sc.Remote.Load(); got != wantRemote {
		t.Fatalf("remote counter = %d, want %d", got, wantRemote)
	}
	if got := sc.Fallback.Load(); got != wantFallback {
		t.Fatalf("fallback counter = %d, want %d", got, wantFallback)
	}
	if got, want := sc.Local.Load(), int64(len(rep.Cells))-wantRemote; got != want {
		t.Fatalf("local counter = %d, want %d", got, want)
	}
	for idx := 1; idx <= len(rep.Cells); idx++ {
		if finished[idx] != 1 {
			t.Fatalf("plan index %d finished %d times, want exactly once", idx, finished[idx])
		}
	}
	logs := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	if logBuf.Len() == 0 {
		logs = nil
	}
	var reasons []string
	for _, sp := range rec.Spans() {
		if sp.Name == "shard-fallback" {
			for _, a := range sp.Attrs {
				if a.Key == "reason" {
					reasons = append(reasons, a.Value)
				}
			}
		}
	}
	if remote {
		if len(reasons) != 0 || len(logs) != 0 {
			t.Fatalf("accepted peer part left fallback causes %q and log lines %q", reasons, logs)
		}
		return ""
	}
	if len(reasons) != 1 || reasons[0] == "" {
		t.Fatalf("fallback left causes %q, want one shard-fallback span with a reason", reasons)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], rec.TraceID()) || !strings.Contains(logs[0], reasons[0]) {
		t.Fatalf("fallback logged %q, want one line with trace %s and cause %q", logs, rec.TraceID(), reasons[0])
	}
	return reasons[0]
}

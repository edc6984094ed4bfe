// Sharded suite execution: a manager with peers runs multi-grid jobs
// on an experiment.ShardExecutor whose peers are Clients of the other
// nodes. Each peer serves its part through the internal shard
// endpoint below, on a local-only engine, so a shard never re-shards.

package service

import (
	"context"
	"encoding/json"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// shardHist times whole shard RPC round-trips (encode, peer
// execution, decode) from the requesting node's side.
var shardHist = obs.Default.Histogram("ax_shard_rpc_duration_seconds",
	"Shard RPC round-trip latency (peer executes its grid partition), in seconds.")

// shardRequest is the wire form of the internal shard endpoint: the
// full suite spec plus the grid names this node should execute.
type shardRequest struct {
	Spec  json.RawMessage `json:"spec"`
	Grids []string        `json:"grids"`
}

// shardResponse is the internal shard endpoint's reply: the partial
// report plus — when the caller propagated a trace context — the spans
// the peer recorded while executing, so remote work nests under the
// originating suite's trace.
type shardResponse struct {
	Report json.RawMessage `json:"report"`
	Spans  []obs.Span      `json:"spans,omitempty"`
}

// ExecuteShard runs the named grids of the spec on this manager's
// local executor, synchronously, and returns the partial report. It
// is the server side of the internal shard endpoint: no job is
// created, no events are logged — the requesting node owns the job —
// and the grids never go on to this node's own peers; executed cells
// do count into this node's scheduler counters and land in its shared
// cache tiers.
func (m *Manager) ExecuteShard(ctx context.Context, spec *experiment.Spec, grids []string) (*experiment.Report, error) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	sub, err := plan.Restrict(grids)
	if err != nil {
		return nil, err
	}
	return m.newEngine(nil, false).RunPlan(ctx, sub)
}

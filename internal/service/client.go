package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// Client is the thin Go client of the axserve HTTP API — what
// cmd/axrobust -server uses to submit-and-stream instead of running
// locally. It only speaks the wire formats the experiment package
// already owns (Spec.Encode, ReadReport, Event JSON), so client and
// server cannot drift apart without a test noticing.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client of the server at base (e.g.
// "http://127.0.0.1:8080"), using http.DefaultClient. Suites can run
// for a long time, so no request timeout is imposed; bound calls with
// their contexts.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
}

// do issues one request and decodes error bodies into errors. When
// ctx carries a trace context it is propagated as headers, so server
// work can nest under the caller's span (the sharded-execution path).
func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		var apiErr errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&apiErr) == nil && apiErr.Error != "" {
			return nil, fmt.Errorf("server: %s (%s)", apiErr.Error, resp.Status)
		}
		return nil, fmt.Errorf("server: %s %s: %s", method, path, resp.Status)
	}
	return resp, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// Submit posts the spec and returns the job (existing or new) plus
// whether this submission created it.
func (c *Client) Submit(ctx context.Context, spec *experiment.Spec) (JobStatus, bool, error) {
	body, err := spec.Encode()
	if err != nil {
		return JobStatus{}, false, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/suites", bytes.NewReader(body))
	if err != nil {
		return JobStatus{}, false, err
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return JobStatus{}, false, fmt.Errorf("decoding submit response: %w", err)
	}
	return sub.Job, sub.Created, nil
}

// Status fetches one job's snapshot.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(ctx, "/v1/suites/"+id, &st)
	return st, err
}

// List fetches every job the server knows.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.getJSON(ctx, "/v1/suites", &out)
	return out, err
}

// Cancel asks the server to stop the job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/suites/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// Report fetches and decodes the finished job's report.
func (c *Client) Report(ctx context.Context, id string) (*experiment.Report, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/suites/"+id+"/report?format=json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return experiment.ReadReport(resp.Body)
}

// ReportRaw fetches the finished report's bytes in the given server
// format ("json" or "csv") without re-encoding, so e.g. the CSV a
// remote caller writes to disk is byte-identical to the server's.
func (c *Client) ReportRaw(ctx context.Context, id, format string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/suites/"+id+"/report?format="+format, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ExecuteShard asks the peer to run the named grids of the spec on
// its local executor, synchronously, returning the partial report.
// This is the node-to-node path of sharded suite execution — not part
// of the public suite API, and not a job on the peer — and makes
// Client an experiment.Peer. The call is one shard-rpc span, the local
// parent every span the peer sends back nests under, timed into
// ax_shard_rpc_duration_seconds.
func (c *Client) ExecuteShard(ctx context.Context, spec *experiment.Spec, grids []string) (*experiment.Report, error) {
	ctx, span := obs.Start(ctx, "shard-rpc",
		obs.Attr{Key: "peer", Value: c.base},
		obs.Attr{Key: "grids", Value: strings.Join(grids, ",")})
	defer func() { shardHist.Observe(span.End()) }()
	specJSON, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(shardRequest{Spec: specJSON, Grids: grids})
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/internal/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var env shardResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding shard reply: %w", err)
	}
	if len(env.Report) == 0 {
		return nil, fmt.Errorf("shard reply from %s has no report", c.base)
	}
	rep, err := experiment.ReadReport(bytes.NewReader(env.Report))
	if err != nil {
		return nil, err
	}
	if rec, _ := obs.FromContext(ctx); rec != nil {
		rec.Import(c.base, env.Spans)
	}
	return rep, nil
}

// TraceRaw fetches a job's Chrome trace_event JSON verbatim — what
// axrobust -trace writes to disk for chrome://tracing / Perfetto.
func (c *Client) TraceRaw(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/suites/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Events consumes the job's SSE stream — full replay, then live —
// invoking fn for every event until the server closes the stream (the
// job reached a terminal state) or ctx is cancelled. fn may be nil to
// just block until the stream ends.
func (c *Client) Events(ctx context.Context, id string, fn func(experiment.Event)) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/suites/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // blank separators, comments, other SSE fields
		}
		var ev experiment.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("decoding event %q: %w", data, err)
		}
		if fn != nil {
			fn(ev)
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// WaitDone follows the job to a terminal state — streaming progress
// through fn when given — and returns its final status, turning any
// state but done into an error carrying the server's terminal error.
func (c *Client) WaitDone(ctx context.Context, id string, fn func(experiment.Event)) (JobStatus, error) {
	if err := c.Events(ctx, id, fn); err != nil {
		return JobStatus{}, err
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return JobStatus{}, err
	}
	if st.State != StateDone {
		return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// Wait follows the job to completion — streaming progress through fn
// when given — and returns its decoded report. Failed or cancelled
// jobs surface the server's terminal error.
func (c *Client) Wait(ctx context.Context, id string, fn func(experiment.Event)) (*experiment.Report, error) {
	if _, err := c.WaitDone(ctx, id, fn); err != nil {
		return nil, err
	}
	return c.Report(ctx, id)
}

// WaitRaw is Wait for callers that want the server's encoding
// verbatim: it follows the job to completion and returns the report
// bytes in the given server format ("json" or "csv").
func (c *Client) WaitRaw(ctx context.Context, id, format string, fn func(experiment.Event)) ([]byte, error) {
	if _, err := c.WaitDone(ctx, id, fn); err != nil {
		return nil, err
	}
	return c.ReportRaw(ctx, id, format)
}

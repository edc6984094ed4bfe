package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/axnn"
	"repro/internal/experiment"
	"repro/internal/nn"
	"repro/internal/obs"
)

// httpHist is the per-route HTTP handler latency family. Children are
// resolved once per registered pattern at handler construction (the
// mux only sets Request.Pattern on its own cloned request, so an outer
// middleware never sees it — wrapping per pattern sidesteps that).
var httpHist = obs.Default.HistogramVec("ax_http_request_duration_seconds",
	"HTTP handler latency by route pattern, in seconds.", "route")

// sseKeepalive is how often an idle /events stream emits a
// ": keepalive" SSE comment so proxies and load balancers don't sever
// long-quiet defense-job subscriptions. Package variable so the slow-
// subscriber test can tighten it.
var sseKeepalive = 15 * time.Second

// SubmitResponse is the body of POST /v1/suites.
type SubmitResponse struct {
	// Created reports whether this submission enqueued new work; false
	// means the spec deduplicated onto an existing job.
	Created bool      `json:"created"`
	Job     JobStatus `json:"job"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// maxSpecBytes bounds POST bodies; the largest checked-in spec is
// under 1 KB, so 1 MB leaves room for any plausible suite.
const maxSpecBytes = 1 << 20

// NewHandler wraps the manager in the service's HTTP/JSON façade:
//
//	POST   /v1/suites               submit a Spec (201 created, 200 deduplicated)
//	GET    /v1/suites               list jobs
//	GET    /v1/suites/{id}          job status
//	GET    /v1/suites/{id}/report   finished report, ?format=json|csv
//	GET    /v1/suites/{id}/events   replay + live progress as SSE
//	GET    /v1/suites/{id}/trace    Chrome trace_event JSON of the job's spans
//	DELETE /v1/suites/{id}          cancel
//	GET    /healthz                 liveness
//	GET    /metrics                 Prometheus-style counters, gauges, and latency histograms
//	POST   /internal/v1/shard       node-to-node: run a subset of a suite's grids
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	// handle registers a route with its latency histogram child
	// pre-resolved, so the hot path is two clock reads and atomic adds.
	handle := func(pattern string, fn http.HandlerFunc) {
		h := httpHist.With(pattern)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			defer h.Time()()
			fn(w, r)
		})
	}
	handle("POST /v1/suites", func(w http.ResponseWriter, r *http.Request) {
		body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		spec := &experiment.Spec{}
		if err := dec.Decode(spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
			return
		}
		id, created, err := m.Submit(spec)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return
		}
		st, err := m.Status(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Location", "/v1/suites/"+id)
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, SubmitResponse{Created: created, Job: st})
	})

	handle("GET /v1/suites", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})

	handle("GET /v1/suites/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	handle("GET /v1/suites/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "json"
		}
		if format != "json" && format != "csv" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or csv)", format))
			return
		}
		rep, err := m.Result(r.PathValue("id"))
		if err != nil {
			switch {
			case errors.Is(err, ErrNotFound):
				writeError(w, http.StatusNotFound, err)
			case errors.Is(err, ErrNotFinished):
				writeError(w, http.StatusConflict, err)
			default: // failed or cancelled: the result is permanently gone
				writeError(w, http.StatusGone, err)
			}
			return
		}
		if format == "csv" {
			w.Header().Set("Content-Type", "text/csv")
			if err := rep.WriteCSV(w); err != nil {
				return // headers are out; nothing recoverable
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
	})

	handle("GET /v1/suites/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		events, err := m.Events(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)
		rc.Flush()
		// Between events — long stretches on defense jobs whose cells
		// take minutes — emit SSE comments so idle proxies and load
		// balancers don't sever the stream. Comments are invisible to
		// event parsers (the Go client skips non-"data:" lines).
		keepalive := time.NewTicker(sseKeepalive)
		defer keepalive.Stop()
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					return // terminal event delivered or subscriber gone
				}
				data, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
					return // subscriber went away; Events observes r.Context()
				}
				rc.Flush()
			case <-keepalive.C:
				if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
					return
				}
				rc.Flush()
			}
		}
	})

	handle("GET /v1/suites/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		spans, err := m.Trace(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, spans)
	})

	handle("DELETE /v1/suites/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	// Internal node-to-node path of sharded execution: run a subset of
	// a suite's grids synchronously and return the partial report. Not
	// part of the public suite API — no job, no events, no dedup.
	handle("POST /internal/v1/shard", func(w http.ResponseWriter, r *http.Request) {
		body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
		var req shardRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding shard request: %w", err))
			return
		}
		spec, err := experiment.Parse(req.Spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Resume the caller's trace when it sent one: spans recorded
		// while executing this shard join the originating suite's trace,
		// parented under the caller's shard-rpc span, and travel back in
		// the response envelope.
		ctx := r.Context()
		var rec *obs.Recorder
		if traceID, parentID := obs.Extract(r.Header); traceID != "" {
			rec = obs.ResumeRecorder(obs.DefaultSpanCap, traceID)
			ctx = obs.WithParent(ctx, rec, parentID)
		}
		rep, err := m.ExecuteShard(ctx, spec, req.Grids)
		if err != nil {
			switch {
			case errors.Is(err, ErrClosed):
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		var repJSON bytes.Buffer
		if err := rep.WriteJSON(&repJSON); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp := shardResponse{Report: repJSON.Bytes()}
		if rec != nil {
			resp.Spans = rec.Spans()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})

	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "jobs": len(m.List())})
	})

	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, m)
	})

	return mux
}

func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default: // spec validation
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// writeMetrics renders the shared cache's counters (the
// core.Cache.Stats surface) and per-state job counts in the Prometheus
// text format, so any scraper can watch dedup effectiveness and queue
// health without a client library.
func writeMetrics(w http.ResponseWriter, m *Manager) {
	st := m.Cache().Stats()
	counters := []struct {
		name, help string
		value      int64
	}{
		{"axserve_cache_craft_hits_total", "Crafted-batch cache hits.", st.CraftHits},
		{"axserve_cache_craft_misses_total", "Crafted-batch cache misses.", st.CraftMisses},
		{"axserve_cache_pred_hits_total", "Victim-prediction cache hits.", st.PredHits},
		{"axserve_cache_pred_misses_total", "Victim-prediction cache misses.", st.PredMisses},
		{"axserve_cache_craft_evictions_total", "Crafted-batch epoch evictions.", st.CraftEvictions},
		{"axserve_cache_pred_evictions_total", "Prediction epoch evictions.", st.PredEvictions},
		{"axserve_cache_craft_coalesced_total", "Crafted-batch misses that waited for a concurrent craft of the same batch instead of crafting.", st.CraftCoalesced},
		{"axserve_cache_pred_coalesced_total", "Prediction misses that waited for a concurrent scoring of the same victim and batch instead of scoring.", st.PredCoalesced},
		{"axserve_cache_compiles_total", "AxDNN victim compilations; one per distinct source and quantization configuration.", st.Compiles},
		{"axserve_cache_compile_hits_total", "Victim builds served by an already compiled network.", st.CompileHits},
		{"axserve_cache_disk_craft_hits_total", "Crafted batches served from the persistent tier.", st.DiskCraftHits},
		{"axserve_cache_disk_craft_misses_total", "Crafted-batch probes the persistent tier missed.", st.DiskCraftMisses},
		{"axserve_cache_disk_pred_hits_total", "Predictions served from the persistent tier.", st.DiskPredHits},
		{"axserve_cache_disk_pred_misses_total", "Prediction probes the persistent tier missed.", st.DiskPredMisses},
		{"axserve_cache_disk_errors_total", "Persistent-tier failures degraded to recomputes.", st.DiskErrors},
		{"axserve_store_admission_rejects_total", "Cold-key lookups rejected by the bloom filter without a disk probe.", st.DiskAdmissionRejects},
		{"axserve_store_gc_evicted_records_total", "Records dropped by size-bounded segment GC.", st.DiskGCEvictions},
		{"axserve_store_corrupt_records_total", "Corrupt records skipped by the store.", st.DiskCorruptRecords},
		{"axserve_sched_cells_local_total", "Suite cells executed by this node's local executor.", m.Sched().Local.Load()},
		{"axserve_sched_cells_remote_total", "Suite cells peer nodes executed for this node's sharded jobs.", m.Sched().Remote.Load()},
		{"axserve_sched_cells_fallback_total", "Suite cells re-executed locally after a peer shard failed.", m.Sched().Fallback.Load()},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}
	gauges := []struct {
		name, help string
		value      int64
	}{
		{"axserve_cache_craft_entries", "Crafted batches currently retained.", st.CraftEntries},
		{"axserve_cache_pred_entries", "Prediction memos currently retained.", st.PredEntries},
		{"axserve_cache_craft_bytes", "Bytes retained by crafted batches.", st.CraftBytes},
		{"axserve_store_keys", "Live keys in the persistent cache store.", st.DiskKeys},
		{"axserve_store_bytes", "Bytes on disk in the persistent cache store.", st.DiskBytes},
		{"axserve_sched_ready_cells", "Cell-graph nodes ready to run in the local executor right now.", m.Sched().Ready.Load()},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.value)
	}
	byState := map[State]int{}
	for _, js := range m.List() {
		byState[js.State]++
	}
	fmt.Fprintf(w, "# HELP axserve_jobs Jobs by state.\n# TYPE axserve_jobs gauge\n")
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "axserve_jobs{state=%q} %d\n", s, byState[s])
	}
	writeBuildInfo(w)
	// Stage latency histograms (cell/craft/predict/store/shard-RPC/HTTP)
	// registered across the tree in the process-wide obs registry.
	obs.Default.WriteProm(w)
}

// writeBuildInfo emits the axserve_build_info gauge: a constant-1
// metric whose labels carry the Go toolchain, the VCS revision, the
// float conv GEMM the process runs (float_gemm: "avx2" or "go", see
// nn.FloatGEMM) and its AxDNN conv LUT kernel (axnn_lut: "avx2" or
// "go", see axnn.LUTKernel), so deployed-version and kernel-path skew
// across shard peers is visible by comparing scrapes.
func writeBuildInfo(w io.Writer) {
	goversion, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goversion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# HELP axserve_build_info Build metadata; the value is always 1.\n# TYPE axserve_build_info gauge\n")
	fmt.Fprintf(w, "axserve_build_info{goversion=\"%s\",revision=\"%s\",float_gemm=\"%s\",axnn_lut=\"%s\"} 1\n",
		obs.EscapeLabel(goversion), obs.EscapeLabel(revision), obs.EscapeLabel(nn.FloatGEMM()), obs.EscapeLabel(axnn.LUTKernel()))
}

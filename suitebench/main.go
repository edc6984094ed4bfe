// Command suitebench is the repository's suite benchmark: it runs
// paper-shaped robustness suites through the public APIs
// (experiment.Engine, and service.NewHandler behind httptest), checks
// every report's bytes against pinned digests, and prints end-to-end
// metrics from untraced runs or per-layer metrics from a traced run.
//
//	bash suitebench/run.sh --workload craft-iter --seed 1 --seconds 20 --trace 0
//
// Workloads: craft-iter (float craft dominates), victim-sweep (AxDNN
// predict dominates) and serve-overlap (service, job dedup, shared
// cache, disk tier). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// After a deliberate change to the reports, -role pin recomputes
// pins.json through the engine.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/service"
)

// setupRuns is how many cold set-ups a run measures (its own and the
// rest in child processes); setup_s is their median.
const setupRuns = 9

// probeRefMS is the host probe's time on the reference host that the
// end-to-end times are scaled to: each is multiplied by probeRefMS over
// the run's host probe, the 10th percentile of every probe time taken
// before, between and after the passes. The probe is a fixed kernel in
// this program that no change to the repository can speed up. On a
// shared host the speed of a core drifts by up to a third over minutes
// with the load of other tenants; the drift moves every pass of a run
// alike, and the probe's fast times move with it. The scale removes
// that drift and nothing the program does: a change that adds work
// adds the same share to the scaled figure.
const probeRefMS = 10.0

func main() {
	var (
		name    = flag.String("workload", "", "craft-iter | victim-sweep | serve-overlap")
		seed    = flag.Int64("seed", 1, "input seed; picks one of the workload's pinned input variants")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		root    = flag.String("root", ".", "repository root (outputs go under <root>/.bench_build)")
		role    = flag.String("role", "run", "run | pin | setup | prepare (setup and prepare are child processes)")
	)
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := dispatch(ctx, *role, *name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "suitebench:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, role, name string, seed int64, seconds float64, traced bool, root string) error {
	if role == "prepare" {
		_, err := modelzoo.GetCtx(ctx, model)
		return err
	}
	if role == "pin" {
		return pin(ctx, root)
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	switch role {
	case "setup":
		return setupChild(ctx, w, tmp)
	case "run":
		return run(ctx, w, w.variantOf(seed), time.Duration(seconds*float64(time.Second)), traced, root, tmp)
	}
	return fmt.Errorf("unknown role %q", role)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passStat is one timed pass: a suite (serial workloads) or a
// closed-loop session (serve-overlap).
type passStat struct {
	wall, cpu, allocMB, gcs float64
	calib                   []float64 // host probe times just before the pass, ms
	jobs                    []float64 // each job's latency, s; a serial pass is one job
}

// outcome collects a run's passes and checks.
type outcome struct {
	passes     []passStat
	attempted  int
	failed     int
	violations []string
	// traced passes' per-layer metrics, one map per pass
	layers []map[string]float64
	tables []string
}

func (o *outcome) check(bad []string) {
	o.attempted++
	if len(bad) > 0 {
		o.failed++
		o.violations = append(o.violations, bad...)
	}
}

func run(ctx context.Context, w workload, v int, seconds time.Duration, traced bool, root, tmp string) error {
	if err := prepare(ctx, root); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	calBefore := calibrate(7)
	rd, own, err := setup(ctx, w, tmp)
	if err != nil {
		return err
	}
	setups := []setupTimes{own}
	stamp, err := weightStamp()
	if err != nil {
		return err
	}

	// One untimed warm-up pass (checked like every other) lets the heap
	// grow to its working size before timing starts.
	o := &outcome{}
	if err := pass(ctx, w, v, rd, tmp, o, false); err != nil {
		return err
	}
	o.passes = nil
	// The other cold set-ups run in child processes between passes, so
	// they sample the same stretch of host time as the passes; their
	// time does not count against the measured phase.
	oneSetup := func() (time.Duration, error) {
		t := time.Now()
		st, err := coldSetup(ctx, w, root)
		setups = append(setups, st)
		return time.Since(t), err
	}
	deadline := time.Now().Add(seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := pass(ctx, w, v, rd, tmp, o, false); err != nil {
			return err
		}
		if traced {
			if err := pass(ctx, w, v, rd, tmp, o, true); err != nil {
				return err
			}
		}
		if len(setups) < setupRuns {
			d, err := oneSetup()
			if err != nil {
				return err
			}
			deadline = deadline.Add(d)
		}
	}
	for len(setups) < setupRuns { // a slow host ran out of passes first
		if _, err := oneSetup(); err != nil {
			return err
		}
	}
	if after, err := weightStamp(); err != nil || after != stamp {
		o.violations = append(o.violations, "the timed phase trained the source model")
		o.failed++
	}
	calAfter := calibrate(7)

	res := result{Correct: o.failed == 0 && len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	var tot, gets, luts, compiles, walls, allocs, gcs []float64
	for _, s := range setups {
		tot, gets, luts, compiles = append(tot, s.Total), append(gets, s.GetS), append(luts, s.LUTS), append(compiles, s.CompileMS)
	}
	probes := append(slices.Clone(calBefore), calAfter...)
	for _, p := range o.passes {
		walls, allocs, gcs = append(walls, p.wall), append(allocs, p.allocMB), append(gcs, p.gcs)
		probes = append(probes, p.calib...)
	}
	probe := quantile(probes, 0.1)
	scale := probeRefMS / probe
	fast := fastest(o.passes)
	var fastWalls, fastCPUs, jobs []float64
	for _, p := range fast {
		fastWalls, fastCPUs, jobs = append(fastWalls, p.wall), append(fastCPUs, p.cpu), append(jobs, p.jobs...)
	}
	tailV, tailPct := tail(jobs)
	out := os.Stdout
	fmt.Fprintf(out, "suitebench %s variant %d: %d passes (median %.3f s); figures from the fastest %d; job tail p%.1f of %d jobs\n",
		w.name, v, len(o.passes), median(walls), len(fast), tailPct, len(jobs))
	fmt.Fprintf(out, "host.calib_ms before %.3f after %.3f; run probe (p10 of %d) %.3f, time scale %.4f\n",
		median(calBefore), median(calAfter), len(probes), probe, scale)
	fmt.Fprintf(out, "set-ups (s): %.3f\n", tot)
	for i, p := range o.passes {
		fmt.Fprintf(out, "pass %d: wall %.3f s, cpu %.3f s, host.calib_ms %.2f\n", i, p.wall, p.cpu, median(p.calib))
	}
	for i, bad := range o.violations {
		if i == 10 {
			fmt.Fprintf(out, "... %d more violations\n", len(o.violations)-10)
			break
		}
		fmt.Fprintln(out, "VIOLATION:", bad)
	}
	if !traced {
		raw := map[string]float64{"setup_s": median(tot), "suite_s": median(fastWalls), "cpu_s": median(fastCPUs),
			"job_p50_s": median(jobs), "job_tail_s": tailV}
		fmt.Fprintf(out, "as measured: setup %.4f s, suite %.4f s, cpu %.4f s, job p50 %.4f s, job tail %.4f s\n",
			raw["setup_s"], raw["suite_s"], raw["cpu_s"], raw["job_p50_s"], raw["job_tail_s"])
		for k, x := range raw {
			res.Metrics[k] = metric{x * scale, "s"}
		}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		if len(o.layers) == 0 {
			return fmt.Errorf("no traced pass completed: %v", o.violations)
		}
		for _, t := range o.tables {
			fmt.Fprint(out, t)
		}
		layer := map[string]float64{}
		for k := range o.layers[0] {
			var xs []float64
			for _, l := range o.layers {
				xs = append(xs, l[k])
			}
			layer[k] = median(xs)
		}
		layer["host.calib_ms"] = probe
		layer["modelzoo.get_s"] = median(gets)
		layer["axmult.lut_s"] = median(luts)
		layer["axnn.compile_ms"] = median(compiles)
		layer["runtime.alloc_mb"] = median(allocs)
		layer["runtime.gc_cycles"] = median(gcs)
		if err := outsideTimings(w, v, rd.model, layer); err != nil {
			return err
		}
		for k, val := range layer {
			res.Metrics[k] = metric{val, unitOf(k)}
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return json.NewEncoder(out).Encode(res)
}

// fastest returns the timed passes that make the end-to-end figures:
// the fastest half by wall time, and at least two. Contention from
// other tenants of a shared host only ever adds time and comes and goes
// within seconds, so the fastest whole passes are the run's best view
// of the program's own cost. Each is a whole suite or session, so its
// GC work and, on serve-overlap, the interleaving of the two clients
// stay in the figures. suite_s and cpu_s are the medians of these
// passes' wall and CPU time; job_p50_s and job_tail_s come from their
// pooled job latencies (on a serial workload a job is one suite).
func fastest(passes []passStat) []passStat {
	s := slices.Clone(passes)
	slices.SortFunc(s, func(a, b passStat) int { return cmp.Compare(a.wall, b.wall) })
	k := min(len(s), max(2, (len(s)+1)/2))
	return s[:k]
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_s", "s"}, {"_mb", "MB"}, {"_ratio", "ratio"}, {"us_per_grad", "us"},
		{"ms_per_sample", "ms"}, {"overhead", "ratio"}, {"store.bytes", "bytes"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// pass runs one timed pass of the workload and records it in o; a
// traced pass records per-layer metrics instead of timings.
func pass(ctx context.Context, w workload, v int, rd *ready, tmp string, o *outcome, traced bool) error {
	var ps passStat
	ps.calib = calibrate(5)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	var err error
	if w.serve {
		ps.wall, ps.jobs, err = servePass(ctx, rd, tmp, v, o, traced)
	} else {
		ps.wall, err = serialPass(ctx, w, v, o, traced)
		ps.jobs = []float64{ps.wall}
	}
	if err != nil {
		return err
	}
	ps.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	ps.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ps.gcs = float64(m1.NumGC - m0.NumGC)
	if traced {
		if len(o.layers) > 0 && len(o.passes) > 0 {
			o.layers[len(o.layers)-1]["obs.overhead"] = ps.wall / o.passes[len(o.passes)-1].wall
		}
	} else {
		o.passes = append(o.passes, ps)
	}
	return nil
}

// serialPass runs the workload's suite once on a fresh engine (own
// cache, serial executor) and checks the report.
func serialPass(ctx context.Context, w workload, v int, o *outcome, traced bool) (float64, error) {
	spec := serialSpec(w, v)
	eng := experiment.New()
	rctx := ctx
	var rec *obs.Recorder
	var root *obs.SpanHandle
	if traced {
		rec = obs.NewRecorder(1 << 16)
		rctx, root = obs.Start(obs.WithRecorder(ctx, rec), "suite")
	}
	start := time.Now()
	rep, err := eng.Run(rctx, spec)
	var buf bytes.Buffer
	if err == nil {
		err = rep.WriteCSV(&buf)
	}
	wall := time.Since(start).Seconds()
	if root != nil {
		root.End()
	}
	if err != nil {
		o.check([]string{fmt.Sprintf("%s: %v", w.name, err)})
		return wall, nil
	}
	bad := checkCSV(serialKey(w, v), buf.Bytes(), eps0Rows{})
	if traced && rec.Dropped() > 0 {
		// The self times below would come from an incomplete tree.
		bad = append(bad, fmt.Sprintf("%s: traced pass dropped %d spans", w.name, rec.Dropped()))
	}
	o.check(bad)
	if !traced {
		return wall, nil
	}
	spans := fromObs(rec.Spans())
	prof := aggregate(spans, false)
	l := layerMetrics(prof, w.n, wall)
	var cellMS []float64
	for _, c := range rep.Cells {
		cellMS = append(cellMS, c.ElapsedMS)
	}
	l["experiment.cell_p50_ms"] = median(cellMS)
	st := eng.Cache().Stats()
	cacheMetrics(l, st.CraftHits, st.CraftMisses, st.PredHits, st.PredMisses, st.CraftEvictions)
	l["obs.dropped"] = float64(rec.Dropped())
	// A serial suite has no service and no store.
	for _, k := range []string{"store.put_ms", "store.get_ms", "store.disk_hit_ratio", "store.bytes", "store.wal_records",
		"service.submit_ms", "service.report_ms", "service.run_s", "service.dedup_ratio"} {
		l[k] = 0
	}
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "traced pass: %.3f s\n", wall)
	prof.table(&tb, wall)
	o.tables = append(o.tables, tb.String())
	o.layers = append(o.layers, l)
	return wall, nil
}

// layerMetrics derives the span-based per-layer metrics of one traced
// pass over n samples whose suite wall time was wall seconds.
func layerMetrics(p profile, n int, wall float64) map[string]float64 {
	l := map[string]float64{}
	l["experiment.bind_s"] = p.total["bind"]
	l["experiment.idle_s"] = wall - p.total["cell"] // serial cells never overlap
	l["craft.self_s"] = p.self["craft"]
	l["craft.count"] = float64(p.computed["craft"])
	l["predict.self_s"] = p.self["predict"]
	l["predict.count"] = float64(p.computed["predict"])
	l["core.craft_dup"] = float64(p.computed["craft"] - len(p.keys))
	grads := 0.0
	for key, c := range p.craftAttacks {
		g, _ := gradsPerSample(key) // an attack without a gradient count adds none
		grads += g * float64(c*n)
	}
	l["attack.grads"] = grads
	if grads > 0 {
		l["craft.us_per_grad"] = 1e6 * p.self["craft"] / grads
	}
	if c := p.computed["predict"]; c > 0 {
		l["predict.ms_per_sample"] = 1000 * p.self["predict"] / float64(c*n)
	}
	return l
}

func cacheMetrics(l map[string]float64, craftHits, craftMisses, predHits, predMisses, evictions int64) {
	l["core.craft_hit_ratio"] = ratio(craftHits, craftHits+craftMisses)
	l["core.pred_hit_ratio"] = ratio(predHits, predHits+predMisses)
	l["core.evictions"] = float64(evictions)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// servePass opens a service over a fresh data dir (or uses the one
// set-up opened), runs one closed-loop session of the variant's job
// pool, checks every job's report and shuts the service down. It
// returns the session's wall time and each job's latency.
func servePass(ctx context.Context, rd *ready, tmp string, v int, o *outcome, traced bool) (float64, []float64, error) {
	env := rd.env
	rd.env = nil // the set-up's service serves one pass; later passes open their own
	if env == nil {
		dir, err := os.MkdirTemp(tmp, "serve-")
		if err != nil {
			return 0, nil, err
		}
		if env, err = openServe(dir); err != nil {
			return 0, nil, err
		}
	}
	var before map[string]float64
	var err error
	if traced {
		if before, err = env.scrape(ctx); err != nil {
			return 0, nil, err
		}
	}
	byClient, wall := env.session(ctx, servePool(v))
	var results []jobResult
	for _, rs := range byClient {
		results = append(results, rs...)
	}
	var dropped map[string]string
	if traced {
		if dropped, err = serveLayers(ctx, env, results, before, wall, o); err != nil {
			return 0, nil, err
		}
	}
	var lat []float64
	clean := eps0Rows{}
	for _, r := range results {
		if r.err != nil {
			o.check([]string{fmt.Sprintf("job %s: %v", r.id, r.err)})
			continue
		}
		bad := checkCSV(r.key, r.csv, clean)
		if msg, ok := dropped[r.id]; ok {
			bad = append(bad, msg)
		}
		o.check(bad)
		lat = append(lat, r.latency)
	}
	return wall, lat, env.close()
}

// serveLayers collects a traced session's per-layer metrics: every
// created job's Chrome trace and status, the /metrics scrape deltas,
// and the cache and store counters. It returns, by job ID, the jobs
// whose trace may have dropped spans.
func serveLayers(ctx context.Context, env *serveEnv, results []jobResult, before map[string]float64, wall float64, o *outcome) (map[string]string, error) {
	var spans []span
	var runs, submits []float64
	dups, idle := 0, 0.0
	dropped := map[string]string{}
	for _, r := range results {
		submits = append(submits, 1000*r.submit)
		if r.err != nil {
			continue
		}
		if !r.created {
			dups++
			continue
		}
		var buf bytes.Buffer
		if err := env.call(ctx, "GET", "/v1/suites/"+r.id+"/trace", nil, &buf); err != nil {
			return nil, err
		}
		s, err := fromChrome(&buf)
		if err != nil {
			return nil, err
		}
		spans = append(spans, s...)
		// Chrome traces carry no drop count: a job whose trace filled
		// its span ring may have dropped spans, so it counts as one.
		if len(s) >= obs.DefaultSpanCap {
			dropped[r.id] = fmt.Sprintf("job %s: trace holds %d spans, its ring may have dropped some", r.id, len(s))
		}
		// Each job's trace has its own time origin, so idle time is
		// taken per job: its suite span not covered by its cells.
		idle += unionOf(s, "suite") - unionOf(s, "cell")
		var st service.JobStatus
		if err := env.call(ctx, "GET", "/v1/suites/"+r.id, nil, &st); err != nil {
			return nil, err
		}
		runs = append(runs, st.Finished.Sub(st.Started).Seconds())
	}
	after, err := env.scrape(ctx)
	if err != nil {
		return nil, err
	}
	prof := aggregate(spans, true)
	l := layerMetrics(prof, serveN, wall)
	l["experiment.idle_s"] = idle
	var cells []float64
	for _, s := range spans {
		if s.name == "cell" {
			cells = append(cells, 1000*s.dur)
		}
	}
	l["experiment.cell_p50_ms"] = median(cells)
	cs := env.mgr.Cache().Stats()
	cacheMetrics(l, cs.CraftHits, cs.CraftMisses, cs.PredHits, cs.PredMisses, cs.CraftEvictions)
	diskHits := cs.DiskCraftHits + cs.DiskPredHits
	l["store.disk_hit_ratio"] = ratio(diskHits, diskHits+cs.DiskCraftMisses+cs.DiskPredMisses)
	ds, ws := env.disk.Stats(), env.wal.Stats()
	l["store.bytes"] = float64(ds.DiskBytes + ws.DiskBytes)
	l["store.wal_records"] = float64(ws.Puts)
	l["store.put_ms"] = histMeanMS(before, after, "ax_store_put_duration_seconds", "")
	l["store.get_ms"] = histMeanMS(before, after, "ax_store_get_duration_seconds", "")
	l["service.submit_ms"] = histMeanMS(before, after, "ax_http_request_duration_seconds", `{route="POST /v1/suites"}`)
	l["service.report_ms"] = histMeanMS(before, after, "ax_http_request_duration_seconds", `{route="GET /v1/suites/{id}/report"}`)
	l["service.run_s"] = median(runs)
	l["service.dedup_ratio"] = float64(dups) / float64(len(results))
	l["obs.dropped"] = float64(len(dropped))
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "traced session: %.3f s, %d jobs (%d deduplicated), client submit p50 %.2f ms\n", wall, len(results), dups, median(submits))
	prof.table(&tb, wall)
	o.tables = append(o.tables, tb.String())
	o.layers = append(o.layers, l)
	return dropped, nil
}

// unionOf returns the seconds covered by the union of the named spans.
func unionOf(spans []span, name string) float64 {
	var lo, hi float64
	var kids []span
	for _, s := range spans {
		if s.name != name {
			continue
		}
		if len(kids) == 0 || s.start < lo {
			lo = s.start
		}
		if e := s.start + s.dur; len(kids) == 0 || e > hi {
			hi = e
		}
		kids = append(kids, s)
	}
	return covered(span{start: lo, dur: hi - lo}, kids)
}

// outsideTimings adds the metrics measured by timing the layers'
// public functions from outside, on the workload's own batch.
func outsideTimings(w workload, v int, m *modelzoo.Model, l map[string]float64) error {
	var spec *experiment.Spec
	if w.serve {
		spec = servePool(v)[0][0]
	} else {
		spec = serialSpec(w, v)
	}
	ts := make([]float64, 20)
	for i := range ts {
		t := time.Now()
		if _, err := spec.Plan(); err != nil {
			return err
		}
		ts[i] = ms(time.Since(t))
	}
	l["experiment.plan_ms"] = median(ts)
	macs := nnLayers(m, w.n, l)
	l["nn.macs"] = 2 * macs * l["attack.grads"]
	l["axnn.macs"] = macs * l["predict.count"] * float64(w.n)
	lm, err := axnnLogits(m, w.n, w.designs)
	if err != nil {
		return err
	}
	l["axnn.logits_ms"] = lm
	return nil
}

// pin recomputes pins.json: the CSV digest of every serial variant's
// report and of every distinct serve-overlap job, run directly through
// the engine (the service must serve the same bytes).
func pin(ctx context.Context, root string) error {
	out := map[string]string{}
	for _, name := range []string{"craft-iter", "victim-sweep"} {
		w := workloads[name]
		for v := 0; v < w.variants; v++ {
			d, err := reportDigest(ctx, experiment.New(), serialSpec(w, v))
			if err != nil {
				return err
			}
			out[serialKey(w, v)] = d
		}
	}
	eng := experiment.New()
	for v := 0; v < variants; v++ {
		for _, spec := range allJobs(servePool(v)) {
			id, err := service.JobID(spec)
			if err != nil {
				return err
			}
			if _, ok := out[jobKey(id)]; ok {
				continue
			}
			if out[jobKey(id)], err = reportDigest(ctx, eng, spec); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "suitebench", "pins.json")
	fmt.Fprintf(os.Stderr, "suitebench: %d digests -> %s\n", len(out), path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func reportDigest(ctx context.Context, eng *experiment.Engine, spec *experiment.Spec) (string, error) {
	rep, err := eng.Run(ctx, spec)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

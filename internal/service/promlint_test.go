package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/axnn"
	"repro/internal/nn"
)

// TestMetricsExpositionWellFormed scrapes a populated /metrics and
// lints the whole body against the Prometheus text-format rules a
// real scraper enforces: HELP/TYPE at most once per family and before
// its samples, families contiguous, label values legally escaped,
// histogram buckets cumulative and ascending with a terminal +Inf
// that equals _count, and _sum present. A hand-rolled exposition
// writer only stays correct if a test reads it back the way
// Prometheus would.
func TestMetricsExpositionWellFormed(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	id, _, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	families := lintPromText(t, text)

	// The suite that just ran must have populated every stage
	// histogram, and the build-info gauge must carry its labels.
	for _, name := range []string{
		"ax_cell_duration_seconds",
		"ax_craft_duration_seconds",
		"ax_predict_duration_seconds",
		"ax_store_get_duration_seconds",
		"ax_store_put_duration_seconds",
		"ax_http_request_duration_seconds",
	} {
		f, ok := families[name]
		if !ok {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if f.typ != "histogram" {
			t.Errorf("family %s has type %q, want histogram", name, f.typ)
		}
		if f.samples == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}
	// The cache's single-flight and compiled-victim counters. The suite
	// ran one compile.
	for _, name := range []string{
		"axserve_cache_craft_coalesced_total",
		"axserve_cache_pred_coalesced_total",
		"axserve_cache_compiles_total",
		"axserve_cache_compile_hits_total",
	} {
		if f, ok := families[name]; !ok || f.typ != "counter" || f.samples != 1 {
			t.Errorf("family %s missing or malformed: %+v", name, f)
		}
	}
	if !strings.Contains(text, "\naxserve_cache_compiles_total 1\n") {
		t.Errorf("axserve_cache_compiles_total is not 1 after one suite")
	}
	if f, ok := families["axserve_build_info"]; !ok || f.typ != "gauge" {
		t.Fatalf("axserve_build_info missing or not a gauge: %+v", f)
	}
	if !strings.Contains(text, `axserve_build_info{goversion="go`) {
		t.Fatalf("build info lacks a goversion label:\n%s", text)
	}
	if !strings.Contains(text, `,float_gemm="`+nn.FloatGEMM()+`",axnn_lut="`+axnn.LUTKernel()+`"} 1`) {
		t.Fatalf("build info lacks the float_gemm label %q or the axnn_lut label %q:\n%s", nn.FloatGEMM(), axnn.LUTKernel(), text)
	}
}

type promFamily struct {
	typ     string
	help    bool
	samples int
}

// lintPromText parses an exposition body strictly and fails the test
// on any format violation, returning the families it saw.
func lintPromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	// histogram series state, keyed by family + label-set sans le
	type histSeries struct {
		les     []float64
		counts  []float64
		sum     float64
		hasSum  bool
		count   float64
		hasCnt  bool
		lastKey string
	}
	hists := map[string]*histSeries{}

	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base, ok := strings.CutSuffix(name, suffix)
			if !ok {
				continue
			}
			if f := families[base]; f != nil && f.typ == "histogram" {
				return base
			}
		}
		return name
	}

	var current string          // family whose block we are inside
	closed := map[string]bool{} // families whose block has ended
	enter := func(lineno int, fam string) *promFamily {
		if fam != current {
			if current != "" {
				closed[current] = true
			}
			if closed[fam] {
				t.Fatalf("line %d: family %s reappears after other families; exposition requires contiguous families", lineno, fam)
			}
			current = fam
		}
		f := families[fam]
		if f == nil {
			f = &promFamily{}
			families[fam] = f
		}
		return f
	}

	for i, line := range strings.Split(text, "\n") {
		lineno := i + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			verb, rest, found := strings.Cut(rest, " ")
			name, _, _ := strings.Cut(rest, " ")
			if !found || name == "" {
				t.Fatalf("line %d: malformed comment %q", lineno, line)
			}
			f := enter(lineno, name)
			switch verb {
			case "HELP":
				if f.help {
					t.Fatalf("line %d: second HELP for %s", lineno, name)
				}
				if f.samples > 0 {
					t.Fatalf("line %d: HELP for %s after its samples", lineno, name)
				}
				f.help = true
			case "TYPE":
				if f.typ != "" {
					t.Fatalf("line %d: second TYPE for %s", lineno, name)
				}
				if f.samples > 0 {
					t.Fatalf("line %d: TYPE for %s after its samples", lineno, name)
				}
				typ, _, _ := strings.Cut(strings.TrimPrefix(rest, name+" "), " ")
				f.typ = typ
			default:
				t.Fatalf("line %d: unknown comment verb %q", lineno, verb)
			}
			continue
		}

		name, labels, value := parsePromSample(t, lineno, line)
		fam := family(name)
		f := enter(lineno, fam)
		f.samples++

		if f.typ != "histogram" {
			if name != fam {
				t.Fatalf("line %d: sample %s does not belong to %s family %s", lineno, name, f.typ, fam)
			}
			continue
		}
		// Histogram series bookkeeping.
		le, rest := "", make([]string, 0, len(labels))
		for _, l := range labels {
			if k, v, _ := strings.Cut(l, "="); k == "le" {
				le = v[1 : len(v)-1]
			} else {
				rest = append(rest, l)
			}
		}
		sort.Strings(rest)
		key := fam + "{" + strings.Join(rest, ",") + "}"
		hs := hists[key]
		if hs == nil {
			hs = &histSeries{}
			hists[key] = hs
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				t.Fatalf("line %d: histogram bucket without le label", lineno)
			}
			lef, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("line %d: unparseable le %q: %v", lineno, le, err)
			}
			hs.les = append(hs.les, lef)
			hs.counts = append(hs.counts, value)
		case strings.HasSuffix(name, "_sum"):
			hs.sum, hs.hasSum = value, true
		case strings.HasSuffix(name, "_count"):
			hs.count, hs.hasCnt = value, true
		default:
			t.Fatalf("line %d: sample %s inside histogram family %s", lineno, name, fam)
		}
		hs.lastKey = key
	}

	for key, hs := range hists {
		if len(hs.les) == 0 {
			t.Fatalf("histogram series %s has no buckets", key)
		}
		for i := 1; i < len(hs.les); i++ {
			if hs.les[i] <= hs.les[i-1] {
				t.Fatalf("histogram %s: le not ascending at index %d (%g after %g)", key, i, hs.les[i], hs.les[i-1])
			}
			if hs.counts[i] < hs.counts[i-1] {
				t.Fatalf("histogram %s: buckets not cumulative at le=%g (%g < %g)", key, hs.les[i], hs.counts[i], hs.counts[i-1])
			}
		}
		if last := hs.les[len(hs.les)-1]; !(last > 1e300) { // +Inf
			t.Fatalf("histogram %s: terminal bucket le=%g, want +Inf", key, last)
		}
		if !hs.hasSum {
			t.Fatalf("histogram %s: missing _sum", key)
		}
		if !hs.hasCnt {
			t.Fatalf("histogram %s: missing _count", key)
		}
		if inf := hs.counts[len(hs.counts)-1]; hs.count != inf {
			t.Fatalf("histogram %s: _count %g != +Inf bucket %g", key, hs.count, inf)
		}
	}
	return families
}

// parsePromSample parses `name{labels} value` strictly, validating
// label quoting and escape sequences, and returns the name, the raw
// `k="v"` label pairs, and the parsed value.
func parsePromSample(t *testing.T, lineno int, line string) (string, []string, float64) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("line %d: %s: %q", lineno, fmt.Sprintf(format, args...), line)
	}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		fail("malformed sample")
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	var labels []string
	if rest[0] == '{' {
		i := 1
		for rest[i] != '}' {
			ks := i
			for rest[i] != '=' {
				i++
			}
			k := rest[ks:i]
			i++ // '='
			if rest[i] != '"' {
				fail("label %s value not quoted", k)
			}
			vs := i
			i++
			for rest[i] != '"' {
				if rest[i] == '\\' {
					switch rest[i+1] {
					case '\\', '"', 'n':
						i++
					default:
						fail("illegal escape \\%c in label %s", rest[i+1], k)
					}
				}
				i++
			}
			i++ // closing quote
			labels = append(labels, k+"="+rest[vs:i])
			if rest[i] == ',' {
				i++
			} else if rest[i] != '}' {
				fail("junk after label %s", k)
			}
		}
		rest = rest[i+1:]
	}
	if rest == "" || rest[0] != ' ' {
		fail("no space before value")
	}
	value, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		fail("unparseable value: %v", err)
	}
	return name, labels, value
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// span is one timed operation, from an in-process obs.Recorder or a
// job's Chrome trace. Times are in seconds on the recorder's clock.
type span struct {
	id, parent, name string
	start, dur       float64
	attrs            map[string]string
}

func fromObs(in []obs.Span) []span {
	out := make([]span, 0, len(in))
	for _, s := range in {
		sp := span{id: s.ID, parent: s.Parent, name: s.Name,
			start: float64(s.Start.UnixNano()) / 1e9, dur: s.Dur.Seconds(), attrs: map[string]string{}}
		for _, a := range s.Attrs {
			sp.attrs[a.Key] = a.Value
		}
		out = append(out, sp)
	}
	return out
}

// fromChrome parses the Chrome trace_event JSON served at
// GET /v1/suites/{id}/trace. Span and parent IDs travel in each
// event's args, so the tree survives the lane packing.
func fromChrome(r io.Reader) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding chrome trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sp := span{name: ev.Name, start: float64(ev.Ts) / 1e6, dur: float64(ev.Dur) / 1e6, attrs: map[string]string{}}
		for k, v := range ev.Args {
			s, _ := v.(string)
			switch k {
			case "span":
				sp.id = s
			case "parent":
				sp.parent = s
			default:
				sp.attrs[k] = s
			}
		}
		out = append(out, sp)
	}
	return out, nil
}

// profile is the per-name aggregate of a set of spans.
type profile struct {
	self  map[string]float64 // seconds not covered by child spans
	total map[string]float64 // seconds of span duration
	count map[string]int
	// computed counts spans that have a child named "disk-put": on a
	// cache with a disk tier only freshly computed artifacts are
	// written through, so this separates computes from disk hits.
	computed map[string]int
	// keys holds the distinct attack|eps pairs of computed craft spans.
	keys map[string]bool
	// craftAttacks counts computed craft spans by attack config key.
	craftAttacks map[string]int
}

// aggregate computes self time by span name: each span's duration
// minus the union of the intervals its children cover within it.
func aggregate(spans []span, hasDisk bool) profile {
	p := profile{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int{},
		computed: map[string]int{}, keys: map[string]bool{}, craftAttacks: map[string]int{}}
	kids := map[string][]span{}
	for _, s := range spans {
		if s.parent != "" {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for _, s := range spans {
		cs := kids[s.id]
		p.self[s.name] += s.dur - covered(s, cs)
		p.total[s.name] += s.dur
		p.count[s.name]++
		computed := !hasDisk
		for _, c := range cs {
			if c.name == "disk-put" {
				computed = true
			}
		}
		if computed {
			p.computed[s.name]++
			if s.name == "craft" {
				p.keys[s.attrs["attack"]+"|"+s.attrs["eps"]] = true
				p.craftAttacks[s.attrs["attack"]]++
			}
		}
	}
	return p
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	end := parent.start + parent.dur
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.start+c.dur, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].lo < ivs[k].lo })
	var sum, curLo, curHi float64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			sum += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return sum + curHi - curLo
}

// table renders the profile as the traced run's per-layer table.
func (p profile) table(w io.Writer, wall float64) {
	names := make([]string, 0, len(p.self))
	for n := range p.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, k int) bool { return p.self[names[i]] > p.self[names[k]] })
	fmt.Fprintf(w, "  %-12s %8s %8s %7s %6s\n", "span", "self_s", "total_s", "self%", "count")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %8.3f %8.3f %6.1f%% %6d\n", n, p.self[n], p.total[n], 100*p.self[n]/wall, p.count[n])
	}
	fmt.Fprintln(w, "  "+strings.Repeat("-", 45))
}

package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kind discriminates progress events.
type Kind int

const (
	// CellStarted fires before a (attack, eps) cell is crafted and
	// evaluated.
	CellStarted Kind = iota
	// CellFinished fires after every victim has been scored on the
	// cell; Elapsed and CacheHit are set.
	CellFinished
	// CacheHit / CacheMiss report whether the cell's crafted batch was
	// served from the engine cache — across attacks, the eps=0 clean
	// row hits after the first attack; across Runs, every repeated
	// cell hits; a cell that waited on a concurrent craft of the same
	// batch (another job on a shared cache) hits too.
	CacheHit
	CacheMiss
	// SuiteStarted / SuiteFinished bracket a whole Run when a job
	// runner (the service Manager) executes it; the engine itself only
	// emits cell-level events. SuiteFinished carries Elapsed and, when
	// the run failed or was cancelled, Err.
	SuiteStarted
	SuiteFinished
)

// kindNames is the stable wire vocabulary: these strings are the JSON
// encoding of Kind, consumed by SSE clients, so they must never change
// for existing kinds.
var kindNames = map[Kind]string{
	CellStarted:   "cell-started",
	CellFinished:  "cell-finished",
	CacheHit:      "cache-hit",
	CacheMiss:     "cache-miss",
	SuiteStarted:  "suite-started",
	SuiteFinished: "suite-finished",
}

// String names the kind for logs.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind by its stable name, never its integer
// value — remote consumers must not depend on enum ordering.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("experiment: cannot marshal unknown event kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a kind name produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for kind, name := range kindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("experiment: unknown event kind %q", s)
}

// Event is one progress observation streamed from Engine.Run (or a
// service job wrapping it). Cell is the cell's 1-based position in
// the compiled plan and Cells the plan's total — stable identities,
// not arrival counters, so parallel and sharded executors that finish
// cells out of order still number them exactly as a serial run would.
// Suite carries the spec name and Job the service job ID, so
// interleaved runs in one process produce attributable lines; the
// engine stamps Time at emission. The JSON encoding is stable (string
// kinds, elapsed in milliseconds) and is what the server's SSE stream
// carries.
type Event struct {
	Kind Kind `json:"kind"`
	// Time is when the event was emitted. Engine.Run stamps it if the
	// emitter left it zero.
	Time time.Time `json:"time,omitzero"`
	// Job is the service job ID the run belongs to; empty for direct
	// engine runs.
	Job    string  `json:"job,omitempty"`
	Suite  string  `json:"suite,omitempty"`
	Attack string  `json:"attack,omitempty"`
	Eps    float64 `json:"eps"`
	Cell   int     `json:"cell,omitempty"`
	Cells  int     `json:"cells,omitempty"`
	// CacheHit is meaningful on CellFinished: whether the cell's
	// crafted batch came from the cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Elapsed is meaningful on CellFinished (crafting plus all victim
	// evaluations for the cell) and SuiteFinished (the whole run). It
	// is marshalled as fractional milliseconds under "elapsed_ms".
	Elapsed time.Duration `json:"-"`
	// Err is meaningful on SuiteFinished: why the run stopped early
	// (failure or cancellation), empty on success.
	Err string `json:"error,omitempty"`
}

// eventAlias strips Event's methods so the custom (un)marshallers can
// reuse the struct tags without recursing.
type eventAlias Event

// MarshalJSON renders the event with its stable wire schema: Kind by
// name and Elapsed as fractional milliseconds ("elapsed_ms"), the unit
// the Report's CellTiming already uses.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		eventAlias
		ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	}{eventAlias(e), float64(e.Elapsed) / float64(time.Millisecond)})
}

// UnmarshalJSON decodes the wire schema produced by MarshalJSON.
func (e *Event) UnmarshalJSON(data []byte) error {
	aux := struct {
		*eventAlias
		ElapsedMS float64 `json:"elapsed_ms"`
	}{eventAlias: (*eventAlias)(e)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	e.Elapsed = time.Duration(aux.ElapsedMS * float64(time.Millisecond))
	return nil
}

// Progress returns a WithProgress callback that streams one line per
// cell start and finish to w (finish lines tag cache hits with
// "(cached)"; the separate CacheHit/CacheMiss events are dropped to
// keep the stream one line per transition) — the -progress rendering
// shared by the suite-running cmd tools. Suite brackets emitted by a
// job runner render too, so server-streamed progress shows run
// boundaries.
func Progress(w io.Writer) func(Event) {
	return func(ev Event) {
		switch ev.Kind {
		case CellStarted, CellFinished, SuiteStarted, SuiteFinished:
			fmt.Fprintln(w, ev)
		}
	}
}

// String renders the event as one progress line.
func (e Event) String() string {
	switch e.Kind {
	case SuiteStarted:
		return fmt.Sprintf("suite %s started (%d cells)", e.suiteLabel(), e.Cells)
	case SuiteFinished:
		if e.Err != "" {
			return fmt.Sprintf("suite %s failed after %s: %s", e.suiteLabel(), e.Elapsed.Round(time.Millisecond), e.Err)
		}
		return fmt.Sprintf("suite %s finished in %s", e.suiteLabel(), e.Elapsed.Round(time.Millisecond))
	}
	head := fmt.Sprintf("[%d/%d] %s eps=%g", e.Cell, e.Cells, e.Attack, e.Eps)
	switch e.Kind {
	case CellFinished:
		tag := ""
		if e.CacheHit {
			tag = " (cached)"
		}
		return fmt.Sprintf("%s done in %s%s", head, e.Elapsed.Round(time.Millisecond), tag)
	case CacheHit, CacheMiss:
		return fmt.Sprintf("%s %s", head, e.Kind)
	}
	return fmt.Sprintf("%s %s", head, e.Kind)
}

// suiteLabel names the run for suite-level lines: the spec name when
// set, else the job ID, else a placeholder.
func (e Event) suiteLabel() string {
	if e.Suite != "" {
		return e.Suite
	}
	if e.Job != "" {
		return e.Job
	}
	return "(unnamed)"
}

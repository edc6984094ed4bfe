package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// CellTiming records one (attack, eps) cell of the executed plan:
// whether its crafted batch was a cache hit (the cell crafted nothing:
// the batch came from memory, from disk, or from a concurrent craft it
// waited on) and how long crafting plus all victim evaluations took.
type CellTiming struct {
	Attack    string  `json:"attack"`
	Eps       float64 `json:"eps"`
	CacheHit  bool    `json:"cache_hit"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Report is the result of executing one Spec: one Grid per attack
// plus per-cell timings. It embeds the Spec it was produced from, so
// a serialized report is self-describing and replayable.
type Report struct {
	Spec Spec `json:"spec"`
	// CleanAcc is the source model's float test accuracy, %.
	CleanAcc float64      `json:"clean_acc"`
	Grids    []*core.Grid `json:"grids"`
	Cells    []CellTiming `json:"cells,omitempty"`
}

// Grid returns the grid swept with the named attack.
func (r *Report) Grid(attack string) (*core.Grid, bool) {
	for _, g := range r.Grids {
		if g.Attack == attack {
			return g, true
		}
	}
	return nil, false
}

// MaxAccuracyLoss returns the largest drop from the clean baseline
// observed anywhere in the suite — the paper's headline statistic
// taken over every attack's grid — with the attack, victim, and
// budget where it happens.
func (r *Report) MaxAccuracyLoss() (loss float64, attack, victim string, eps float64) {
	for _, g := range r.Grids {
		if l, v, e := g.MaxAccuracyLoss(); l > loss {
			loss, attack, victim, eps = l, g.Attack, v, e
		}
	}
	return loss, attack, victim, eps
}

// WriteJSON encodes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes a Report previously encoded with WriteJSON — the
// counterpart remote clients use to consume server output without
// re-parsing by hand. Unknown fields are tolerated so older clients
// keep working against newer servers; the grids must decode to a
// non-empty suite, since an empty report is never a valid WriteJSON
// product.
func ReadReport(rd io.Reader) (*Report, error) {
	r := &Report{}
	if err := json.NewDecoder(rd).Decode(r); err != nil {
		return nil, fmt.Errorf("experiment: decoding report: %w", err)
	}
	if len(r.Grids) == 0 {
		return nil, fmt.Errorf("experiment: decoded report has no grids")
	}
	return r, nil
}

// WriteCSV encodes the suite as one long-format row per (attack, eps,
// victim) cell — the layout plotting scripts and spreadsheets want.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"attack", "dataset", "eps", "victim", "robustness_pct"}); err != nil {
		return err
	}
	for _, g := range r.Grids {
		for ei, eps := range g.Eps {
			for vi, victim := range g.Victims {
				rec := []string{
					g.Attack,
					g.Dataset,
					strconv.FormatFloat(eps, 'g', -1, 64),
					victim,
					strconv.FormatFloat(g.Acc[ei][vi], 'g', -1, 64),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders every grid in the paper's figure layout followed by
// the suite-wide accuracy-loss headline.
func (r *Report) String() string {
	var b strings.Builder
	for _, g := range r.Grids {
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	if loss, atk, victim, eps := r.MaxAccuracyLoss(); loss > 0 {
		fmt.Fprintf(&b, "max accuracy loss: %.0f%% under %s on %s at eps=%g\n", loss, atk, victim, eps)
	}
	return b.String()
}

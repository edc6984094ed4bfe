package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// pinsJSON maps a report key to the SHA-256 of the report's CSV bytes,
// as produced by this program's -role pin on a known-good tree.
//
//go:embed pins.json
var pinsJSON []byte

var pins = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err))
	}
	return m
}()

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// serialKey names the pinned report of a serial workload's variant.
func serialKey(w workload, v int) string { return fmt.Sprintf("%s/n=%d/v=%d", w.name, w.n, v) }

// jobKey names the pinned report of one serve-overlap job.
func jobKey(jobID string) string { return fmt.Sprintf("serve-overlap/n=%d/%s", serveN, jobID) }

// eps0Rows records each victim's eps=0 robustness; the clean row does
// not depend on the attack, so every grid and job must agree on it.
type eps0Rows map[string]string

// checkCSV verifies one report's bytes: the pinned digest, every
// robustness value within [0, 100], and the eps=0 row agreeing with
// every earlier grid's. It returns the violations found.
func checkCSV(key string, data []byte, clean eps0Rows) []string {
	var bad []string
	want, ok := pins[key]
	switch {
	case !ok:
		bad = append(bad, fmt.Sprintf("%s: no pinned digest", key))
	case digest(data) != want:
		bad = append(bad, fmt.Sprintf("%s: digest %s, pinned %s", key, digest(data)[:16], want[:16]))
	}
	recs, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
	if err != nil || len(recs) < 2 {
		return append(bad, fmt.Sprintf("%s: unreadable CSV (%v)", key, err))
	}
	// Columns: attack, dataset, eps, victim, robustness_pct.
	for _, r := range recs[1:] {
		if len(r) != 5 {
			bad = append(bad, fmt.Sprintf("%s: row %v has %d fields", key, r, len(r)))
			continue
		}
		v, err := strconv.ParseFloat(r[4], 64)
		if err != nil || v < 0 || v > 100 {
			bad = append(bad, fmt.Sprintf("%s: robustness %q out of [0,100]", key, r[4]))
		}
		if r[2] != "0" {
			continue
		}
		if prev, seen := clean[r[3]]; seen && prev != r[4] {
			bad = append(bad, fmt.Sprintf("%s: eps=0 row of %s is %s, another grid has %s", key, r[3], r[4], prev))
		}
		clean[r[3]] = r[4]
	}
	return bad
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/axmult"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/modelzoo"
)

// setupTimes splits one set-up into its stages. Total runs from the
// workload's start to ready-to-run and never includes training.
type setupTimes struct {
	Total     float64 `json:"total_s"`
	GetS      float64 `json:"get_s"`      // modelzoo.GetCtx: weights, test set, clean accuracy
	LUTS      float64 `json:"lut_s"`      // axmult.Lookup of every design
	CompileMS float64 `json:"compile_ms"` // core.BuildAxVictims over materialised LUTs
}

// ready is what a set-up leaves for the timed phase.
type ready struct {
	model *modelzoo.Model
	env   *serveEnv // serve-overlap only
}

// setup makes the workload ready to run in this process: loads the
// source model, materialises the designs' LUTs, compiles the victims
// and, for serve-overlap, opens the service over a fresh data dir.
func setup(ctx context.Context, w workload, tmp string) (*ready, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	m, err := modelzoo.GetCtx(ctx, model)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	for _, d := range w.designs {
		if _, err := axmult.Lookup(d); err != nil {
			return nil, st, err
		}
	}
	t2 := time.Now()
	if _, err := core.BuildAxVictims(m.Net, m.Test, w.designs, axnn.Options{}); err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	r := &ready{model: m}
	if w.serve {
		dir, err := os.MkdirTemp(tmp, "serve-")
		if err != nil {
			return nil, st, err
		}
		if r.env, err = openServe(dir); err != nil {
			return nil, st, err
		}
	}
	st.Total = time.Since(t0).Seconds()
	st.GetS = t1.Sub(t0).Seconds()
	st.LUTS = t2.Sub(t1).Seconds()
	st.CompileMS = ms(t3.Sub(t2))
	return r, st, nil
}

// setupChild measures one set-up in a fresh process, where neither the
// model nor the LUTs are memoised yet, and prints its times as JSON.
func setupChild(ctx context.Context, w workload, tmp string) error {
	r, st, err := setup(ctx, w, tmp)
	if err != nil {
		return err
	}
	if r.env != nil {
		if err := r.env.close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(st)
}

// child runs this binary again with the given role and returns its
// standard output.
func child(ctx context.Context, args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	return out, nil
}

// coldSetup measures one set-up in a child process.
func coldSetup(ctx context.Context, w workload, root string) (setupTimes, error) {
	var st setupTimes
	b, err := child(ctx, "-role", "setup", "-workload", w.name, "-root", root)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("set-up child output %q: %w", b, err)
	}
	return st, nil
}

// weightStamp identifies the trained weights on disk; a timed phase
// that changes it has trained.
func weightStamp() (string, error) {
	fi, err := os.Stat(modelzoo.WeightPath(model))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d@%d", fi.Size(), fi.ModTime().UnixNano()), nil
}

// prepare makes sure the source model's weights are on disk before
// anything is timed, training them once (in a child process, so this
// process's first model load is still a cold one) when they are not.
func prepare(ctx context.Context, root string) error {
	_, err := os.Stat(modelzoo.WeightPath(model))
	if err == nil {
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	fmt.Fprintf(os.Stderr, "suitebench: training %s once (untimed)\n", model)
	_, err = child(ctx, "-role", "prepare", "-root", root)
	return err
}

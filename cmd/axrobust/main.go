// Command axrobust runs the paper's robustness evaluation (Algorithm 1)
// as a declared suite: it crafts adversarial examples on the accurate
// float model and sweeps them over AxDNN victims built from a
// multiplier set, one grid per attack, in the layout of the paper's
// Figs. 4-7.
//
// A suite is declared either by flags or by a JSON spec file
// (internal/experiment.Spec); explicitly set flags override the spec's
// fields, so a checked-in spec can be re-run at a different scale with
// e.g. -n 8. Ctrl-C cancels the sweep cleanly mid-cell.
//
// Examples:
//
//	axrobust -model lenet5-digits -attack BIM-linf
//	axrobust -model lenet5-digits -attack BIM-linf,FGM-linf -progress
//	axrobust -spec testdata/specs/fig4.json -format csv
//	axrobust -spec testdata/specs/fig4c.json -n 8
//	axrobust -spec testdata/specs/universal.json                 # UAP/MI-FGSM suite
//	axrobust -model lenet5-digits -attack PGD-linf -restarts 5
//	axrobust -spec testdata/specs/defense.json -n 8              # defended suite
//	axrobust -model lenet5-digits -defense ensemble -defense-pool mnist -eot-samples 4
//
// With -server the suite is not run locally: the spec is submitted to
// a running axserve instance, progress is streamed back over SSE, and
// the report is fetched from the server — in csv/json mode as the
// server's bytes verbatim, so remote output is byte-identical to the
// server's. Identical specs deduplicate server-side onto one job:
//
//	axrobust -server http://localhost:8080 -spec testdata/specs/fig4.json -format csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	specPath := flag.String("spec", "", "run the suite declared in this JSON spec file")
	model := flag.String("model", "lenet5-digits", "trained model: "+strings.Join(modelzoo.Names(), ", "))
	atkNames := flag.String("attack", "BIM-linf", "comma-separated attack names, from: "+strings.Join(attack.Names(), ", "))
	mults := flag.String("mults", "mnist", `multiplier set: "mnist", "cifar", or comma-separated names ("float" adds the float network's column)`)
	epsList := flag.String("eps", "0,0.05,0.1,0.15,0.2,0.25,0.5,1,1.5,2", "comma-separated perturbation budgets")
	n := flag.Int("n", 300, "test samples")
	seed := flag.Int64("seed", 7, "attack randomness seed")
	momentum := flag.Float64("momentum", 0, "MI-FGSM momentum decay mu (0 = attack default)")
	restarts := flag.Int("restarts", 0, "PGD random restarts (0 or 1 = plain PGD)")
	uapIters := flag.Int("uap-iters", 0, "UAP passes over the sample set (0 = attack default)")
	defKind := flag.String("defense", "", `defenses to evaluate: "advtrain", "ensemble", or both comma-separated`)
	defAttack := flag.String("defense-attack", "", "adversarial-training crafting attack (e.g. PGD-linf)")
	defEps := flag.Float64("defense-eps", 0, "adversarial-training crafting budget")
	defRatio := flag.Float64("defense-ratio", 0, "fraction of samples adversarially replaced per epoch (0 = default 0.5)")
	defEpochs := flag.Int("defense-epochs", 0, "adversarial fine-tuning epochs (0 = default 1)")
	defPool := flag.String("defense-pool", "", `ensemble multiplier pool: "mnist", "cifar", or comma-separated names`)
	eotSamples := flag.Int("eot-samples", 0, "configuration draws per EOT step (0 = no adaptive grid)")
	bits := flag.Uint("bits", 8, "quantization level (Qlevel)")
	approxDense := flag.Bool("approx-dense", false, "route dense-layer products through the approximate multiplier")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cellWorkers := flag.Int("cell-workers", 1, "suite cells run concurrently (1 = serial; reports are identical either way)")
	format := flag.String("format", "text", "output format: text, json, csv")
	progress := flag.Bool("progress", false, "stream per-cell progress to stderr")
	server := flag.String("server", "", "submit to this axserve base URL instead of running locally")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (chrome://tracing / Perfetto)")
	flag.Parse()

	outFormat, err := cli.ParseFormat(*format)
	if err != nil {
		cli.Fail("axrobust", err)
	}

	eps, err := cli.ParseEps(*epsList)
	if err != nil {
		cli.Fail("axrobust", err)
	}
	// One flag-to-spec mapping serves both modes: with a spec file,
	// only explicitly set flags override it (flag.Visit); without one,
	// every flag's value — default or explicit — fills the spec
	// (flag.VisitAll).
	spec := &experiment.Spec{}
	// A zero param keeps the attack's own default, so params are only
	// materialised in the spec once some knob is set (or the spec file
	// already carries them and a flag overrides one).
	param := func() *experiment.AttackParams {
		if spec.AttackParams == nil {
			spec.AttackParams = &experiment.AttackParams{}
		}
		return spec.AttackParams
	}
	// Same materialise-on-demand rule for the defense block: flags only
	// create it once some defense knob is set, or override fields of a
	// spec file that already carries one.
	dspec := func() *experiment.DefenseSpec {
		if spec.Defense == nil {
			spec.Defense = &experiment.DefenseSpec{}
		}
		return spec.Defense
	}
	applyFlag := func(f *flag.Flag) {
		switch f.Name {
		case "model":
			spec.Model = *model
		case "attack":
			spec.Attacks = cli.ParseList(*atkNames)
		case "mults":
			spec.Multipliers = cli.ParseList(*mults)
		case "eps":
			spec.Eps = eps
		case "n":
			spec.Samples = *n
		case "seed":
			spec.Seed = *seed
		case "bits":
			spec.Bits = *bits
		case "approx-dense":
			spec.ApproxDense = *approxDense
		case "workers":
			spec.Workers = *workers
		case "momentum":
			if *momentum != 0 || spec.AttackParams != nil {
				param().Momentum = *momentum
			}
		case "restarts":
			if *restarts != 0 || spec.AttackParams != nil {
				param().Restarts = *restarts
			}
		case "uap-iters":
			if *uapIters != 0 || spec.AttackParams != nil {
				param().UAPIters = *uapIters
			}
		case "defense":
			if *defKind != "" || spec.Defense != nil {
				dspec().Kind = *defKind
			}
		case "defense-attack":
			if *defAttack != "" || spec.Defense != nil {
				dspec().Attack = *defAttack
			}
		case "defense-eps":
			if *defEps != 0 || spec.Defense != nil {
				dspec().Eps = *defEps
			}
		case "defense-ratio":
			if *defRatio != 0 || spec.Defense != nil {
				dspec().Ratio = *defRatio
			}
		case "defense-epochs":
			if *defEpochs != 0 || spec.Defense != nil {
				dspec().Epochs = *defEpochs
			}
		case "defense-pool":
			if *defPool != "" || spec.Defense != nil {
				dspec().Pool = cli.ParseList(*defPool)
			}
		case "eot-samples":
			if *eotSamples != 0 || spec.Defense != nil {
				dspec().EOTSamples = *eotSamples
			}
		}
	}
	if *specPath != "" {
		if spec, err = experiment.Load(*specPath); err != nil {
			cli.Fail("axrobust", err)
		}
		flag.Visit(applyFlag)
	} else {
		flag.VisitAll(applyFlag)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *server != "" {
		runRemote(ctx, *server, spec, outFormat, *progress, *tracePath)
		return
	}

	var engineOpts []experiment.Option
	if *progress {
		engineOpts = append(engineOpts, experiment.WithProgress(experiment.Progress(os.Stderr)))
	}
	if *cellWorkers > 1 {
		engineOpts = append(engineOpts, experiment.WithExecutor(&experiment.LocalExecutor{Parallel: *cellWorkers}))
	}
	eng := experiment.New(engineOpts...)

	// With -trace, record the run's span tree under a local suite root
	// and write it out as Chrome trace JSON. Tracing is observation
	// only: the report bytes are identical either way.
	var rec *obs.Recorder
	runCtx := ctx
	if *tracePath != "" {
		rec = obs.NewRecorder(obs.DefaultSpanCap)
		runCtx = obs.WithRecorder(ctx, rec)
	}
	sctx, suiteSpan := obs.Start(runCtx, "suite", obs.Attr{Key: "suite", Value: spec.Name})
	rep, err := eng.Run(sctx, spec)
	suiteSpan.End()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cli.Fail("axrobust", fmt.Errorf("interrupted: %w", err))
		}
		cli.Fail("axrobust", err)
	}
	if rec != nil {
		if err := writeTrace(*tracePath, rec); err != nil {
			cli.Fail("axrobust", err)
		}
	}

	switch outFormat {
	case "text":
		fmt.Printf("%s: clean float accuracy %.1f%%\n", spec.Model, rep.CleanAcc)
		fmt.Print(rep)
	case "json":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			cli.Fail("axrobust", err)
		}
	case "csv":
		if err := rep.WriteCSV(os.Stdout); err != nil {
			cli.Fail("axrobust", err)
		}
	}
}

// runRemote submits the spec to an axserve instance (deduplicating
// onto any identical job the server already has), streams progress
// over SSE, and emits the finished report: csv/json as the server's
// bytes verbatim — byte-identical to what any other client fetched —
// and text rendered locally from the decoded report, matching a local
// run's output.
func runRemote(ctx context.Context, base string, spec *experiment.Spec, format string, progress bool, tracePath string) {
	c := service.NewClient(base)
	st, created, err := c.Submit(ctx, spec)
	if err != nil {
		cli.Fail("axrobust", err)
	}
	verb := "submitted as"
	if !created {
		verb = "deduplicated onto"
	}
	fmt.Fprintf(os.Stderr, "axrobust: %s job %s (%s)\n", verb, st.ID, st.State)
	var onEvent func(experiment.Event)
	if progress {
		onEvent = experiment.Progress(os.Stderr)
	}

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			cli.Fail("axrobust", fmt.Errorf("interrupted: %w", err))
		}
		cli.Fail("axrobust", err)
	}
	// With -trace, the server already recorded the job's spans (its own
	// plus any imported from shard peers); fetch them after completion.
	fetchTrace := func() {
		if tracePath == "" {
			return
		}
		raw, err := c.TraceRaw(ctx, st.ID)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(tracePath, raw, 0o644); err != nil {
			fail(err)
		}
	}
	if format == "text" {
		rep, err := c.Wait(ctx, st.ID, onEvent)
		if err != nil {
			fail(err)
		}
		fetchTrace()
		fmt.Printf("%s: clean float accuracy %.1f%%\n", rep.Spec.Model, rep.CleanAcc)
		fmt.Print(rep)
		return
	}
	raw, err := c.WaitRaw(ctx, st.ID, format, onEvent)
	if err != nil {
		fail(err)
	}
	fetchTrace()
	if _, err := os.Stdout.Write(raw); err != nil {
		fail(err)
	}
}

// writeTrace renders the recorder's spans as Chrome trace_event JSON
// at path.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

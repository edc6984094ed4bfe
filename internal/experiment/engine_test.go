package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/models"
	"repro/internal/modelzoo"
	"repro/internal/train"
)

// fixtureZoo trains two small FFNNs once and serves them like the
// model zoo would, so engine tests never touch the real trained-model
// cache.
var (
	fixtureZoo map[string]*modelzoo.Model
	// fixtureMu guards fixtureZoo across every source closure — the
	// map is package-shared, so the lock must be too.
	fixtureMu sync.Mutex
)

func fixtureSource(t *testing.T) func(context.Context, string) (*modelzoo.Model, error) {
	t.Helper()
	fixtureMu.Lock()
	if fixtureZoo == nil {
		fixtureZoo = map[string]*modelzoo.Model{}
		for i, name := range []string{"tiny-a", "tiny-b"} {
			tr := dataset.Digits(800, 71+int64(i))
			test := dataset.Digits(150, 91+int64(i))
			net := models.FFNN(28*28, 10, 73+int64(i))
			net.Name = name
			train.Fit(net, tr, train.Config{Epochs: 2, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 3})
			fixtureZoo[name] = &modelzoo.Model{Net: net, Train: tr, Test: test, CleanAcc: 100 * train.Accuracy(net, test, 0)}
		}
	}
	fixtureMu.Unlock()
	return func(ctx context.Context, name string) (*modelzoo.Model, error) {
		fixtureMu.Lock()
		defer fixtureMu.Unlock()
		if m, ok := fixtureZoo[name]; ok {
			return m, nil
		}
		// Hardened derived ids resolve against the fixture zoo the way
		// the real zoo's defense deriver resolves against entries —
		// trained on demand, memoised, single worker for bit stability.
		if defense.IsHardenedID(name) {
			base, cfg, err := defense.ParseHardenedID(name)
			if err != nil {
				return nil, err
			}
			bm, ok := fixtureZoo[base]
			if !ok {
				return nil, fmt.Errorf("fixture zoo: unknown base model %q", base)
			}
			cfg.Workers = 1
			m, err := defense.Harden(ctx, bm, cfg)
			if err != nil {
				return nil, err
			}
			fixtureZoo[name] = m
			return m, nil
		}
		return nil, fmt.Errorf("fixture zoo: unknown model %q", name)
	}
}

func tinySpec() *Spec {
	return &Spec{
		Name:        "engine-test",
		Model:       "tiny-a",
		Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
		Attacks:     []string{"FGM-linf", "PGD-linf"},
		Eps:         []float64{0, 0.1},
		Samples:     60,
		Seed:        5,
	}
}

// TestEngineMatchesRobustnessGrid is the acceptance criterion: one
// Run over a multi-attack spec produces grids identical — cell for
// cell and in MaxAccuracyLoss — to the single-grid
// core.Cache.RobustnessGrid sweep with the same options.
func TestEngineMatchesRobustnessGrid(t *testing.T) {
	src := fixtureSource(t)
	eng := New(WithModelSource(src))
	spec := tinySpec()
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grids) != len(spec.Attacks) {
		t.Fatalf("suite produced %d grids, want %d", len(rep.Grids), len(spec.Attacks))
	}
	m, _ := src(context.Background(), "tiny-a")
	victims, err := core.BuildAxVictims(m.Net, m.Test, spec.ExpandMultipliers(), axnnOptions(spec))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range spec.Attacks {
		ref, err := core.NewCache(core.CacheConfig{}).RobustnessGrid(context.Background(), m.Net, victims, m.Test,
			attackByName(t, name), spec.Eps, core.Options{Samples: spec.Samples, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Grids[i].Acc, ref.Acc) {
			t.Fatalf("%s: engine grid diverged from RobustnessGrid:\nengine %v\nref    %v", name, rep.Grids[i].Acc, ref.Acc)
		}
		el, ev, ee := rep.Grids[i].MaxAccuracyLoss()
		rl, rv, re := ref.MaxAccuracyLoss()
		if el != rl || ev != rv || ee != re {
			t.Fatalf("%s: MaxAccuracyLoss diverged: %v/%v/%v vs %v/%v/%v", name, el, ev, ee, rl, rv, re)
		}
	}
	if len(rep.Cells) != len(spec.Attacks)*len(spec.Eps) {
		t.Fatalf("report has %d cell timings, want %d", len(rep.Cells), len(spec.Attacks)*len(spec.Eps))
	}
}

// TestEngineCleanRowSharedAcrossAttacks pins the cross-attack cache
// contract: the eps=0 clean batch is attack-independent, so the
// second attack's clean cell must be a cache hit.
func TestEngineCleanRowSharedAcrossAttacks(t *testing.T) {
	var events []Event
	eng := New(WithModelSource(fixtureSource(t)), WithProgress(func(ev Event) { events = append(events, ev) }))
	if _, err := eng.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}
	hitAt := map[string]bool{}
	for _, ev := range events {
		if ev.Kind == CellFinished {
			hitAt[fmt.Sprintf("%s@%g", ev.Attack, ev.Eps)] = ev.CacheHit
		}
	}
	if hitAt["FGM-linf@0"] {
		t.Fatal("first attack's clean row cannot be a hit on a fresh engine")
	}
	if !hitAt["PGD-linf@0"] {
		t.Fatal("second attack's eps=0 cell must hit the shared clean batch")
	}
	if hitAt["PGD-linf@0.1"] {
		t.Fatal("distinct attacks must not share nonzero-eps cells")
	}

	// A second identical Run replays entirely from the cache.
	events = nil
	if _, err := eng.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind == CellFinished && !ev.CacheHit {
			t.Fatalf("repeated run re-crafted %s eps=%g", ev.Attack, ev.Eps)
		}
	}
}

// TestEngineCacheIsolation: two engines never observe each other's
// entries.
func TestEngineCacheIsolation(t *testing.T) {
	src := fixtureSource(t)
	e1 := New(WithModelSource(src))
	if _, err := e1.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}
	if e1.Cache().CraftedLen() == 0 {
		t.Fatal("first engine cached nothing")
	}

	var events []Event
	e2 := New(WithModelSource(src), WithProgress(func(ev Event) { events = append(events, ev) }))
	if _, err := e2.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind == CellFinished && ev.CacheHit && ev.Eps != 0 {
			t.Fatalf("fresh engine hit another engine's entry at %s eps=%g", ev.Attack, ev.Eps)
		}
	}
	n1 := e1.Cache().CraftedLen()
	e2.Cache().Clear()
	if e1.Cache().CraftedLen() != n1 {
		t.Fatal("clearing one engine's cache drained the other's")
	}
}

// TestEngineCancellationMidSweep cancels after the first finished
// cell: Run must return ctx.Err() promptly without leaking worker
// goroutines or memoising cells it never finished.
func TestEngineCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished int
	eng := New(WithModelSource(fixtureSource(t)), WithProgress(func(ev Event) {
		if ev.Kind == CellFinished {
			if finished++; finished == 1 {
				cancel()
			}
		}
	}))
	rep, err := eng.Run(ctx, tinySpec())
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	if finished > 2 {
		t.Fatalf("engine kept sweeping after cancellation: %d cells finished", finished)
	}
	// No goroutine leak: the crafting/evaluation workers must all have
	// exited shortly after Run returns.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked by cancelled sweep: %d before, %d after", before, n)
	}
}

// TestEngineTransferSuite runs a victim_model spec — crafted on one
// architecture, replayed on another — and checks it against the
// direct core path.
func TestEngineTransferSuite(t *testing.T) {
	src := fixtureSource(t)
	spec := tinySpec()
	spec.VictimModel = "tiny-b"
	spec.Attacks = []string{"FGM-linf"}
	eng := New(WithModelSource(src))
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := src(context.Background(), "tiny-a")
	b, _ := src(context.Background(), "tiny-b")
	victims, err := core.BuildAxVictims(b.Net, b.Test, spec.ExpandMultipliers(), axnnOptions(spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewCache(core.CacheConfig{}).RobustnessGrid(context.Background(), a.Net, victims, b.Test,
		attackByName(t, "FGM-linf"), spec.Eps, core.Options{Samples: spec.Samples, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Grids[0].Acc, ref.Acc) {
		t.Fatalf("transfer suite diverged from core path:\nengine %v\nref    %v", rep.Grids[0].Acc, ref.Acc)
	}
}

func TestEngineUnknownModel(t *testing.T) {
	eng := New(WithModelSource(fixtureSource(t)))
	spec := tinySpec()
	spec.Model = "no-such-model"
	if _, err := eng.Run(context.Background(), spec); err == nil {
		t.Fatal("unknown model must fail the run with an error")
	}
	spec = tinySpec()
	spec.Attacks = []string{"bogus"}
	if _, err := eng.Run(context.Background(), spec); err == nil {
		t.Fatal("invalid spec must fail the run with an error")
	}
}

// TestEngineUniversalSuite is the acceptance criterion for the
// set-level family: a UAP/MIFGSM/restarted-PGD suite runs end to end,
// the UAP perturbation is crafted once per (eps, seed) and replayed
// from the cache on repeat runs, and the Report is bit-identical
// across two fresh engines with the same seed.
func TestEngineUniversalSuite(t *testing.T) {
	spec := tinySpec()
	spec.Attacks = []string{"UAP-linf", "MIFGSM-linf", "PGD-linf"}
	spec.AttackParams = &AttackParams{Momentum: 0.9, Restarts: 2, UAPIters: 2}
	spec.Samples = 40

	var events []Event
	eng := New(WithModelSource(fixtureSource(t)), WithProgress(func(ev Event) { events = append(events, ev) }))
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grids) != 3 {
		t.Fatalf("suite produced %d grids, want 3", len(rep.Grids))
	}
	if g, ok := rep.Grid("UAP-linf"); !ok || g.Attack != "UAP-linf" {
		t.Fatal("report is missing the UAP grid")
	}
	if g, ok := rep.Grid("PGD-linf"); !ok || g.Attack != "PGD-linf" {
		t.Fatal("restarted PGD must still sweep under its plain name")
	}

	// Repeat run on the same engine: every cell — including the
	// set-crafted UAP cells — replays from the cache.
	events = nil
	rep2, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind == CellFinished && !ev.CacheHit {
			t.Fatalf("repeated universal run re-crafted %s eps=%g", ev.Attack, ev.Eps)
		}
	}

	// A fresh engine with the same spec/seed reproduces the report's
	// numbers bit for bit.
	rep3, err := New(WithModelSource(fixtureSource(t))).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Grids {
		if !reflect.DeepEqual(rep.Grids[i].Acc, rep2.Grids[i].Acc) ||
			!reflect.DeepEqual(rep.Grids[i].Acc, rep3.Grids[i].Acc) {
			t.Fatalf("%s: universal suite not bit-identical across runs", rep.Grids[i].Attack)
		}
	}
}

// TestEngineConcurrentRunsSharedCache runs two engines over one cache
// from concurrent goroutines — the exact pattern the service worker
// pool uses (one engine per job, WithCache on the manager's shared
// cache). Under -race this pins that concurrent Runs racing on the
// same cells are safe, converge on one memoised batch, and produce
// the same numbers as an isolated run.
func TestEngineConcurrentRunsSharedCache(t *testing.T) {
	src := fixtureSource(t)
	ref, err := New(WithModelSource(src)).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	shared := core.NewCache(core.CacheConfig{})
	const runs = 4
	reports := make([]*Report, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A fresh engine per goroutine, all sharing one cache — jobs
			// in the service never share engine structs, only the cache.
			eng := New(WithModelSource(src), WithCache(shared))
			spec := tinySpec()
			// Two distinct specs interleaved: half the runs flip the
			// attack order, so the goroutines race on shared cells rather
			// than marching in lockstep.
			if i%2 == 1 {
				spec.Attacks = []string{"PGD-linf", "FGM-linf"}
			}
			reports[i], errs[i] = eng.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d failed: %v", i, errs[i])
		}
		for _, name := range []string{"FGM-linf", "PGD-linf"} {
			got, ok := reports[i].Grid(name)
			if !ok {
				t.Fatalf("run %d missing grid %s", i, name)
			}
			want, _ := ref.Grid(name)
			if !reflect.DeepEqual(got.Acc, want.Acc) {
				t.Fatalf("run %d: %s grid diverged under the shared cache:\ngot  %v\nwant %v", i, name, got.Acc, want.Acc)
			}
		}
	}
	// The shared cache holds exactly one entry per distinct cell (clean
	// batch + 2 attacks at eps=0.1), however the four runs raced.
	if n := shared.CraftedLen(); n != 3 {
		t.Fatalf("shared cache holds %d crafted batches after concurrent runs, want 3", n)
	}
}

// TestEngineRejectsDuplicateAttacks pins the Report.Grid collision
// fix at the engine boundary: a spec with the same attack twice must
// fail validation instead of producing colliding grids.
func TestEngineRejectsDuplicateAttacks(t *testing.T) {
	spec := tinySpec()
	spec.Attacks = []string{"FGM-linf", "FGM-linf"}
	if _, err := New(WithModelSource(fixtureSource(t))).Run(context.Background(), spec); err == nil {
		t.Fatal("duplicate attacks must fail the run")
	}
}

func defenseSpec() *Spec {
	return &Spec{
		Name:  "defense-test",
		Model: "tiny-a",
		// The fixture FFNNs have no conv layers, so the approximate
		// multipliers only bite through the dense path.
		ApproxDense: true,
		Multipliers: []string{"mul8u_1JFF", "mul8u_JV3"},
		Attacks:     []string{"PGD-linf", "FGM-linf"},
		Eps:         []float64{0, 0.05, 0.1},
		Samples:     60,
		Seed:        5,
		Defense: &DefenseSpec{
			Kind:       "advtrain,ensemble",
			Attack:     "PGD-linf",
			Eps:        0.1,
			Ratio:      0.5,
			Epochs:     1,
			Pool:       []string{"mul8u_1JFF", "mul8u_JV3", "mul8u_L40"},
			EOTSamples: 4,
		},
	}
}

// TestEngineDefenseSuite is the acceptance criterion for the defense
// subsystem: one spec runs an adversarially trained model AND a
// randomized-approximation ensemble as victim rows of the same
// Report, the adaptive EOT grid rides alongside the declared attacks,
// and EOT measurably lowers the ensemble's apparent robustness
// compared with plain PGD on the same seed — the honest-evaluation
// property (everything is seeded, so these comparisons are exact, not
// statistical).
func TestEngineDefenseSuite(t *testing.T) {
	spec := defenseSpec()
	var events []Event
	eng := New(WithModelSource(fixtureSource(t)), WithProgress(func(ev Event) { events = append(events, ev) }))
	rep, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grids) != 3 {
		t.Fatalf("defended suite produced %d grids, want attacks + EOT = 3", len(rep.Grids))
	}
	eot, ok := rep.Grid("EOT-PGD-linf")
	if !ok {
		t.Fatal("report is missing the adaptive EOT grid")
	}
	pgd, _ := rep.Grid("PGD-linf")
	advName := spec.Defense.AdvTrainVictimName()
	for _, g := range rep.Grids {
		for _, name := range []string{advName, "ensemble[3]"} {
			if _, ok := g.Column(name); !ok {
				t.Fatalf("grid %s is missing defense victim %q (victims %v)", g.Attack, name, g.Victims)
			}
		}
	}

	// The adversarially trained victim must out-rank every undefended
	// victim at the training budget under the attack it trained
	// against — otherwise the defense did nothing.
	const trainEps = 0.1
	advRob, _ := pgd.At(trainEps, advName)
	for _, name := range spec.ExpandMultipliers() {
		if r, _ := pgd.At(trainEps, name); advRob <= r {
			t.Fatalf("advtrain robustness %.1f%% not above undefended %s (%.1f%%) at eps=%g", advRob, name, r, trainEps)
		}
	}

	// Honest evaluation: the ensemble's EOT robustness is never above
	// its plain-PGD robustness, and strictly below at some budget —
	// plain PGD overstates the randomized defense.
	ensPGD, _ := pgd.Column("ensemble[3]")
	ensEOT, _ := eot.Column("ensemble[3]")
	strictly := false
	for ei, e := range pgd.Eps {
		if e == 0 {
			if ensEOT[ei] != ensPGD[ei] {
				t.Fatal("clean row must be identical across grids")
			}
			continue
		}
		if ensEOT[ei] > ensPGD[ei] {
			t.Fatalf("EOT raised apparent robustness at eps=%g: %.1f%% > %.1f%%", e, ensEOT[ei], ensPGD[ei])
		}
		if ensEOT[ei] < ensPGD[ei] {
			strictly = true
		}
	}
	if !strictly {
		t.Fatalf("EOT did not measurably lower the ensemble's robustness anywhere: PGD %v vs EOT %v", ensPGD, ensEOT)
	}

	// The progress plan covers attacks + EOT, matching Spec.CellCount.
	finished := 0
	for _, ev := range events {
		if ev.Kind == CellFinished {
			finished++
			if ev.Cells != spec.CellCount() {
				t.Fatalf("event advertises %d cells, want CellCount %d", ev.Cells, spec.CellCount())
			}
		}
	}
	if finished != spec.CellCount() {
		t.Fatalf("finished %d cells, want %d", finished, spec.CellCount())
	}

	// Bit-identical across a fresh engine with the same seed: the
	// defense stack (hardening, ensemble draws, EOT sampling) inherits
	// the repo's determinism contract.
	rep2, err := New(WithModelSource(fixtureSource(t))).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Grids {
		if !reflect.DeepEqual(rep.Grids[i].Acc, rep2.Grids[i].Acc) {
			t.Fatalf("%s: defended suite not bit-identical across engines", rep.Grids[i].Attack)
		}
	}
}

// TestEngineDefenseCacheIsolation is the cross-run cache-collision
// test: defended and undefended suites sharing one engine (and so one
// cache) must neither pollute each other's cells nor share the
// adaptive grid's crafted batches with plain PGD's.
func TestEngineDefenseCacheIsolation(t *testing.T) {
	src := fixtureSource(t)
	undefended := defenseSpec()
	undefended.Defense = nil

	ref, err := New(WithModelSource(src)).Run(context.Background(), undefended)
	if err != nil {
		t.Fatal(err)
	}

	var events []Event
	shared := New(WithModelSource(src), WithProgress(func(ev Event) { events = append(events, ev) }))
	defended, err := shared.Run(context.Background(), defenseSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The EOT grid's nonzero cells must be crafted fresh — a cache
	// collision with the PGD cells (same source, eps, seed, sample
	// count) would serve PGD's batches under the EOT name.
	for _, ev := range events {
		if ev.Kind == CellFinished && ev.Attack == "EOT-PGD-linf" && ev.Eps != 0 && ev.CacheHit {
			t.Fatalf("EOT cell at eps=%g served from another attack's cache entry", ev.Eps)
		}
	}
	eot, _ := defended.Grid("EOT-PGD-linf")
	pgd, _ := defended.Grid("PGD-linf")
	if reflect.DeepEqual(eot.Acc, pgd.Acc) {
		t.Fatal("EOT grid identical to PGD grid — crafted batches collided")
	}

	// Re-running the undefended suite on the same engine after the
	// defended one reproduces the reference exactly: defense entries
	// never leak into undefended cells.
	events = nil
	again, err := shared.Run(context.Background(), undefended)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Grids {
		if !reflect.DeepEqual(again.Grids[i].Acc, ref.Grids[i].Acc) {
			t.Fatalf("%s: undefended grid changed after a defended run shared the cache", ref.Grids[i].Attack)
		}
	}
	// ... and the shared (source, attack, eps, seed) cells deduplicate
	// across the defended and undefended runs — that reuse is correct
	// because the crafted batch does not depend on the victim list.
	for _, ev := range events {
		if ev.Kind == CellFinished && !ev.CacheHit {
			t.Fatalf("undefended re-run re-crafted %s eps=%g despite the shared cache", ev.Attack, ev.Eps)
		}
	}
}

// TestEngineDefenseUnknownPieces: defense blocks that reference
// unresolvable pieces fail the run with an error.
func TestEngineDefenseUnknownPieces(t *testing.T) {
	spec := defenseSpec()
	spec.Defense.Pool = []string{"mul8u_NOPE"}
	if _, err := New(WithModelSource(fixtureSource(t))).Run(context.Background(), spec); err == nil {
		t.Fatal("unknown ensemble pool multiplier must fail the run")
	}
	spec = defenseSpec()
	spec.Defense.Attack = "DeepFool"
	if _, err := New(WithModelSource(fixtureSource(t))).Run(context.Background(), spec); err == nil {
		t.Fatal("unknown advtrain attack must fail the run")
	}
}

// TestEngineDefenseCancellationDuringHardening: a cancelled run
// context must reach hardened-model training (the model source is
// ctx-aware), not let it run to completion — the axserve
// cancel-while-training path.
func TestEngineDefenseCancellationDuringHardening(t *testing.T) {
	spec := defenseSpec()
	// A config no other test uses, so the fixture zoo cannot serve a
	// memoised hardened model and Run must actually train.
	spec.Defense.Eps = 0.07
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := New(WithModelSource(fixtureSource(t))).Run(ctx, spec)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled defended Run returned (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}

// TestEngineEnsemblePredictionsMemoisedAcrossRuns: a fresh Ensemble is
// built per Run, but its behaviour is fully determined by its config
// key, so the second Run's ensemble column must be served from the
// prediction memo (core.ModelKeyer) instead of re-scoring 9 members
// per cell.
func TestEngineEnsemblePredictionsMemoisedAcrossRuns(t *testing.T) {
	spec := defenseSpec()
	spec.Defense.Kind = "ensemble" // no advtrain: keep the run light
	spec.Defense.Attack, spec.Defense.Eps, spec.Defense.Ratio, spec.Defense.Epochs = "", 0, 0, 0
	eng := New(WithModelSource(fixtureSource(t)))
	rep1, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s1 := eng.Cache().Stats()
	rep2, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s2 := eng.Cache().Stats()
	// Every cell's ensemble prediction hits; the rebuilt multiplier
	// victims (fresh pointers) may miss, but the ensemble must not.
	if hits := s2.PredHits - s1.PredHits; hits < int64(spec.CellCount()) {
		t.Fatalf("second run scored only %d prediction hits, want >= %d (ensemble column memoised)", hits, spec.CellCount())
	}
	for i := range rep1.Grids {
		if !reflect.DeepEqual(rep1.Grids[i].Acc, rep2.Grids[i].Acc) {
			t.Fatalf("%s: memoised ensemble run diverged", rep1.Grids[i].Attack)
		}
	}
}

package experiment

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/axmult"
)

// specsDir locates the checked-in example specs relative to this
// package.
const specsDir = "../../testdata/specs"

// TestSpecGoldenRoundTrip pins the canonical encoding: every
// checked-in spec file must decode, validate, and re-encode to the
// identical bytes, so the files double as golden fixtures for the
// JSON surface.
func TestSpecGoldenRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(specsDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected several example specs under %s, found %v", specsDir, paths)
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s does not round-trip through Spec.Encode:\n--- file ---\n%s--- re-encoded ---\n%s", path, want, got)
		}
	}
}

func validSpec() *Spec {
	return &Spec{
		Model:       "lenet5-digits",
		Multipliers: []string{"mul8u_1JFF"},
		Attacks:     []string{"FGM-linf"},
		Eps:         []float64{0, 0.1},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no model", func(s *Spec) { s.Model = "" }},
		{"no attacks", func(s *Spec) { s.Attacks = nil }},
		{"unknown attack", func(s *Spec) { s.Attacks = []string{"DeepFool"} }},
		{"no multipliers", func(s *Spec) { s.Multipliers = nil }},
		{"unknown multiplier", func(s *Spec) { s.Multipliers = []string{"mul8u_NOPE"} }},
		{"duplicate float", func(s *Spec) { s.Multipliers = []string{FloatVictim, "mul8u_1JFF", FloatVictim} }},
		{"duplicate float among aliases", func(s *Spec) { s.Multipliers = []string{FloatVictim, "mnist", "mul8u_2P7", FloatVictim} }},
		{"duplicate multiplier", func(s *Spec) { s.Multipliers = []string{"mul8u_1JFF", "mul8u_1JFF"} }},
		{"duplicate multiplier across case", func(s *Spec) { s.Multipliers = []string{"mul8u_1JFF", "MUL8U_1jff"} }},
		{"multiplier inside an alias", func(s *Spec) { s.Multipliers = []string{"mnist", "mul8u_JV3"} }},
		{"aliases sharing a design", func(s *Spec) { s.Multipliers = []string{"mnist", "cifar"} }},
		{"float in ensemble pool", func(s *Spec) {
			s.Defense = &DefenseSpec{Kind: "ensemble", Pool: []string{"mul8u_1JFF", FloatVictim}}
		}},
		{"no eps", func(s *Spec) { s.Eps = nil }},
		{"negative eps", func(s *Spec) { s.Eps = []float64{-0.1} }},
		{"NaN eps", func(s *Spec) { s.Eps = []float64{math.NaN()} }},
		{"+Inf eps", func(s *Spec) { s.Eps = []float64{math.Inf(1)} }},
		{"-Inf eps", func(s *Spec) { s.Eps = []float64{math.Inf(-1)} }},
		{"duplicate eps", func(s *Spec) { s.Eps = []float64{0, 0.1, 0.1} }},
		{"aliasing eps", func(s *Spec) { s.Eps = []float64{0.3, 0.1 * 3} }},
		{"duplicate attack", func(s *Spec) { s.Attacks = []string{"FGM-linf", "FGM-linf"} }},
		{"negative samples", func(s *Spec) { s.Samples = -1 }},
		{"negative workers", func(s *Spec) { s.Workers = -2 }},
		{"momentum above 1", func(s *Spec) { s.AttackParams = &AttackParams{Momentum: 1.5} }},
		{"NaN momentum", func(s *Spec) { s.AttackParams = &AttackParams{Momentum: math.NaN()} }},
		{"negative restarts", func(s *Spec) { s.AttackParams = &AttackParams{Restarts: -1} }},
		{"negative uap iters", func(s *Spec) { s.AttackParams = &AttackParams{UAPIters: -3} }},
		// Params that apply to no attack in the suite would be silently
		// ignored: FGM-linf is neither MIFGSM, PGD, nor UAP.
		{"momentum without MIFGSM", func(s *Spec) { s.AttackParams = &AttackParams{Momentum: 0.9} }},
		{"restarts without PGD", func(s *Spec) { s.AttackParams = &AttackParams{Restarts: 3} }},
		{"uap iters without UAP", func(s *Spec) { s.AttackParams = &AttackParams{UAPIters: 5} }},
		{"defense without kind", func(s *Spec) { s.Defense = &DefenseSpec{Attack: "PGD-linf", Eps: 0.1} }},
		{"unknown defense kind", func(s *Spec) { s.Defense = &DefenseSpec{Kind: "distillation"} }},
		{"duplicate defense kind", func(s *Spec) {
			s.Defense = &DefenseSpec{Kind: "advtrain,advtrain", Attack: "PGD-linf", Eps: 0.1}
		}},
		{"advtrain without attack", func(s *Spec) { s.Defense = &DefenseSpec{Kind: "advtrain", Eps: 0.1} }},
		{"advtrain unknown attack", func(s *Spec) { s.Defense = &DefenseSpec{Kind: "advtrain", Attack: "DeepFool", Eps: 0.1} }},
		{"advtrain zero eps", func(s *Spec) { s.Defense = &DefenseSpec{Kind: "advtrain", Attack: "PGD-linf"} }},
		{"advtrain ratio above 1", func(s *Spec) {
			s.Defense = &DefenseSpec{Kind: "advtrain", Attack: "PGD-linf", Eps: 0.1, Ratio: 1.5}
		}},
		{"advtrain config without kind", func(s *Spec) {
			s.Defense = &DefenseSpec{Kind: "ensemble", Pool: []string{"mul8u_1JFF"}, Attack: "PGD-linf", Eps: 0.1}
		}},
		{"ensemble without pool", func(s *Spec) { s.Defense = &DefenseSpec{Kind: "ensemble"} }},
		{"ensemble unknown pool", func(s *Spec) { s.Defense = &DefenseSpec{Kind: "ensemble", Pool: []string{"mul8u_NOPE"}} }},
		{"negative eot samples", func(s *Spec) {
			s.Defense = &DefenseSpec{Kind: "ensemble", Pool: []string{"mul8u_1JFF"}, EOTSamples: -1}
		}},
		{"eot without ensemble", func(s *Spec) {
			s.Defense = &DefenseSpec{Kind: "advtrain", Attack: "PGD-linf", Eps: 0.1, EOTSamples: 4}
		}},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}

	// One float column, anywhere among designs and aliases, is valid,
	// and the aliases never expand to it. The mnist and cifar sets
	// share mul8u_1JFF, so together they only expand.
	s := validSpec()
	s.Multipliers = []string{"mnist", FloatVictim, "mul8u_2P7"}
	if err := s.Validate(); err != nil {
		t.Fatalf("float among aliases rejected: %v", err)
	}
	s.Multipliers = []string{"mnist", FloatVictim, "cifar"}
	got := s.ExpandMultipliers()
	if want := len(axmult.MNISTSet()) + 1 + len(axmult.CIFARSet()); len(got) != want || got[len(axmult.MNISTSet())] != FloatVictim {
		t.Fatalf("expanded to %v, want %d entries with the float column after the mnist set", got, want)
	}
	if n := slices.Index(got, FloatVictim); slices.Index(got[n+1:], FloatVictim) >= 0 {
		t.Fatalf("an alias expanded to %q: %v", FloatVictim, got)
	}
}

// TestSpecDefenseValidAndCellCount: well-formed defense blocks
// validate, the alias pool expands, and CellCount accounts for the
// adaptive grid — the figure the service sizes job progress with.
func TestSpecDefenseValidAndCellCount(t *testing.T) {
	s := validSpec()
	if s.CellCount() != len(s.Attacks)*len(s.Eps) {
		t.Fatalf("undefended CellCount %d, want %d", s.CellCount(), len(s.Attacks)*len(s.Eps))
	}
	s.Defense = &DefenseSpec{
		Kind:       "advtrain,ensemble",
		Attack:     "UAP-linf", // set-level attacks are legal AT crafters
		Eps:        0.1,
		Pool:       []string{"mnist"},
		EOTSamples: 3,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid defended spec rejected: %v", err)
	}
	if got := s.Defense.ExpandPool(); len(got) != 9 {
		t.Fatalf("mnist pool alias expanded to %v", got)
	}
	if want := (len(s.Attacks) + 1) * len(s.Eps); s.CellCount() != want {
		t.Fatalf("defended CellCount %d, want %d (EOT grid included)", s.CellCount(), want)
	}
	// EOT disabled: no extra grid.
	s.Defense.EOTSamples = 0
	if s.CellCount() != len(s.Attacks)*len(s.Eps) {
		t.Fatal("EOT-less defense must not add a grid")
	}
	if !s.Defense.Has(DefenseAdvTrain) || !s.Defense.Has(DefenseEnsemble) || s.Defense.Has("x") {
		t.Fatal("kind membership misreported")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"model":"lenet5-digits","multipliers":["mul8u_1JFF"],"attacks":["FGM-linf"],"eps":[0.1],"sampels":10}`))
	if err == nil {
		t.Fatal("a typoed field must fail Parse, not silently run defaults")
	}
}

func TestExpandMultipliers(t *testing.T) {
	s := &Spec{Multipliers: []string{"mnist", "mul8u_L1G"}}
	got := s.ExpandMultipliers()
	if len(got) != 10 { // 9-entry mnist set + 1 explicit
		t.Fatalf("mnist alias + explicit expanded to %v", got)
	}
	if got[len(got)-1] != "mul8u_L1G" {
		t.Fatalf("explicit name not preserved in order: %v", got)
	}
	for _, m := range got[:9] {
		if m == "mnist" {
			t.Fatal("alias not expanded")
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(specsDir, "does-not-exist.json")); err == nil {
		t.Fatal("expected error for missing spec file")
	}
}

// TestAttackParamsApplied: AttackParams must reach the resolved
// attack instances — momentum onto MI-FGSM, iterations onto UAP, and
// a restart wrapper (with its own cache identity) around PGD — while
// leaving non-matching attacks and nil-params suites untouched.
func TestAttackParamsApplied(t *testing.T) {
	s := validSpec()
	s.Attacks = []string{"MIFGSM-linf", "UAP-linf", "PGD-linf", "BIM-linf"}
	s.AttackParams = &AttackParams{Momentum: 0.5, Restarts: 4, UAPIters: 3}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	atks := s.attackList()
	if mi := atks[0].(*attack.MIFGSM); mi.Mu != 0.5 {
		t.Fatalf("momentum not applied: mu=%g", mi.Mu)
	}
	if u := atks[1].(*attack.UAP); u.Iters != 3 {
		t.Fatalf("uap_iters not applied: iters=%d", u.Iters)
	}
	r, ok := atks[2].(*attack.Restart)
	if !ok || r.Restarts != 4 {
		t.Fatalf("PGD not wrapped in restarts: %T", atks[2])
	}
	if r.Name() != "PGD-linf" {
		t.Fatalf("restarted PGD renamed to %q", r.Name())
	}
	if _, wrapped := atks[3].(*attack.Restart); wrapped {
		t.Fatal("restarts must not wrap plain BIM (no random start)")
	}

	s.AttackParams = nil
	plain := s.attackList()
	if mi := plain[0].(*attack.MIFGSM); mi.Mu != 0.9 {
		t.Fatalf("nil params changed MIFGSM defaults: mu=%g", mi.Mu)
	}
	if _, wrapped := plain[2].(*attack.Restart); wrapped {
		t.Fatal("nil params wrapped PGD in restarts")
	}
}

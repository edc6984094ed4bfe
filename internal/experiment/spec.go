// Package experiment is the declarative face of the reproduction: a
// JSON-(de)serializable Spec describes an entire evaluation suite —
// source model, victim multipliers and quantization, multiple attacks,
// eps sweeps, sample counts, seed — and an Engine executes it under a
// context with its own caches, returning a multi-grid Report and
// streaming progress events along the way.
//
// The paper's methodology (Algorithm 1) is run at suite scale: six
// attacks × two norms × eps grids × dozens of AxDNN victims (Figs.
// 4-7, Table I). A Spec captures one such suite as data, so the same
// protocol can be checked in, diffed, replayed (cmd/axrobust -spec),
// and reproduced in a single engine.Run call with crafted-batch reuse
// across every grid that shares a cell.
package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/axmult"
	"repro/internal/core"
	"repro/internal/defense"
)

// Spec declares one evaluation suite. The zero values of optional
// fields select the same defaults the cmd tools use, so minimal specs
// stay short. Multiplier entries may be the aliases "mnist" or
// "cifar", which expand to the paper's Figs. 4-6 / Fig. 7 sets, and
// the reserved entry "float" (FloatVictim), the victim-side float
// network itself.
type Spec struct {
	// Name labels the suite in reports and progress output.
	Name string `json:"name,omitempty"`
	// Model is the modelzoo identifier of the accurate source model
	// the attacks are crafted on.
	Model string `json:"model"`
	// VictimModel optionally names a different modelzoo model to build
	// the AxDNN victims from — the Table II transferability scenario,
	// where examples crafted on Model replay on another architecture.
	// Empty means Model itself. The victims are evaluated on the
	// victim model's test set.
	VictimModel string `json:"victim_model,omitempty"`
	// Multipliers are the approximate designs, one victim per entry
	// ("mnist"/"cifar" expand to the paper's sets). At most one entry
	// may be FloatVictim: a column, at its place in the list, scoring
	// the non-quantized float network (Fig. 8's baseline).
	Multipliers []string `json:"multipliers"`
	// Bits is the victim quantization level (the paper's Qlevel);
	// 0 means 8.
	Bits uint `json:"bits,omitempty"`
	// ApproxDense routes dense-layer products through the approximate
	// multiplier too.
	ApproxDense bool `json:"approx_dense,omitempty"`
	// Attacks name the attacks to sweep, one Grid per entry.
	Attacks []string `json:"attacks"`
	// AttackParams tunes the configurable attack families for the
	// whole suite; nil keeps every attack's defaults.
	AttackParams *AttackParams `json:"attack_params,omitempty"`
	// Defense declares deliberate defenses evaluated alongside the
	// plain victims: an adversarially trained model and/or a
	// randomized-approximation ensemble appear as extra victim columns,
	// and EOTSamples adds the adaptive EOT grid. nil runs the classic
	// undefended suite.
	Defense *DefenseSpec `json:"defense,omitempty"`
	// Eps are the perturbation budgets of every sweep.
	Eps []float64 `json:"eps"`
	// Samples caps the number of test samples (0 = all).
	Samples int `json:"samples,omitempty"`
	// Seed drives the attack randomness.
	Seed int64 `json:"seed,omitempty"`
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Batch caps the crafting/evaluation batch size (0 = derived).
	Batch int `json:"batch,omitempty"`
}

// FloatVictim is the reserved Multipliers entry, and the column name,
// of the victim-side float network. The set aliases never expand to
// it, and it is no multiplier: the defense pool rejects it.
const FloatVictim = "float"

// AttackParams are the suite-wide knobs of the configurable attack
// families. Zero values keep the attack's own defaults, so a spec
// only states what it changes.
type AttackParams struct {
	// Momentum overrides MI-FGSM's gradient decay mu (default 0.9).
	Momentum float64 `json:"momentum,omitempty"`
	// Restarts wraps PGD in that many random restarts (0 or 1 = run
	// PGD plain).
	Restarts int `json:"restarts,omitempty"`
	// UAPIters overrides the UAP crafter's aggregated-gradient passes
	// over the sample set (default 10).
	UAPIters int `json:"uap_iters,omitempty"`
}

// Defense kinds a DefenseSpec can enable.
const (
	DefenseAdvTrain = "advtrain"
	DefenseEnsemble = "ensemble"
)

// DefenseSpec declares the suite's defenses (the spec's "defense"
// block). Kind selects which are active; the remaining fields
// configure them. Defended and undefended runs of the same model never
// share crafted-example cache entries for the adaptive grid, and the
// hardened model is a distinct network, so their rows never collide.
type DefenseSpec struct {
	// Kind enables defenses: "advtrain", "ensemble", or both as a
	// comma-separated list.
	Kind string `json:"kind"`
	// Attack names the adversarial-training crafting attack (kind
	// advtrain), e.g. "PGD-linf". Any attack name is accepted;
	// set-level attacks (UAP) select universal adversarial training.
	Attack string `json:"attack,omitempty"`
	// Eps is the adversarial-training crafting budget.
	Eps float64 `json:"eps,omitempty"`
	// Ratio is the fraction of training samples adversarially replaced
	// per epoch (0 = defense default 0.5).
	Ratio float64 `json:"ratio,omitempty"`
	// Epochs is the number of adversarial fine-tuning epochs (0 =
	// defense default 1).
	Epochs int `json:"epochs,omitempty"`
	// Pool are the ensemble's multipliers (kind ensemble); the
	// "mnist"/"cifar" aliases expand like Multipliers.
	Pool []string `json:"pool,omitempty"`
	// EOTSamples > 0 adds the adaptive EOT-PGD-linf grid: PGD over the
	// mean of that many configuration draws per step, the honest
	// evaluation of the randomized ensemble (kind ensemble only).
	EOTSamples int `json:"eot_samples,omitempty"`
}

// kinds splits the comma-separated Kind field into trimmed tokens.
func (d *DefenseSpec) kinds() []string {
	var out []string
	for _, k := range strings.Split(d.Kind, ",") {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}

// Has reports whether the given defense kind is enabled.
func (d *DefenseSpec) Has(kind string) bool {
	for _, k := range d.kinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// ExpandPool resolves the ensemble pool's set aliases, like
// Spec.ExpandMultipliers.
func (d *DefenseSpec) ExpandPool() []string { return expandMultiplierAliases(d.Pool) }

// AdvTrainConfig maps the block onto the defense package's config;
// the suite's seed drives selection, crafting, and SGD shuffles.
func (d *DefenseSpec) AdvTrainConfig(seed int64) defense.AdvTrainConfig {
	return defense.AdvTrainConfig{
		Attack: d.Attack,
		Eps:    d.Eps,
		Ratio:  d.Ratio,
		Epochs: d.Epochs,
		Seed:   seed,
	}
}

// AdvTrainVictimName is the hardened model's victim column label.
func (d *DefenseSpec) AdvTrainVictimName() string {
	return fmt.Sprintf("advtrain[%s@%g]", d.Attack, d.Eps)
}

// validate checks the defense block's internal consistency; the
// "spec: defense:" prefix is applied by Spec.Validate's caller
// context.
func (d *DefenseSpec) validate() error {
	kinds := d.kinds()
	if len(kinds) == 0 {
		return fmt.Errorf("spec: defense.kind is required (%s, %s, or both)", DefenseAdvTrain, DefenseEnsemble)
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if k != DefenseAdvTrain && k != DefenseEnsemble {
			return fmt.Errorf("spec: unknown defense kind %q (have: %s, %s)", k, DefenseAdvTrain, DefenseEnsemble)
		}
		if seen[k] {
			return fmt.Errorf("spec: duplicate defense kind %q", k)
		}
		seen[k] = true
	}
	if d.Has(DefenseAdvTrain) {
		if err := d.AdvTrainConfig(0).Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	} else if d.Attack != "" || d.Eps != 0 || d.Ratio != 0 || d.Epochs != 0 {
		// Config that silently applies to nothing would make the report
		// look adversarially trained without being so.
		return fmt.Errorf("spec: defense attack/eps/ratio/epochs set without the %q kind", DefenseAdvTrain)
	}
	if d.Has(DefenseEnsemble) {
		pool := d.ExpandPool()
		if len(pool) == 0 {
			return fmt.Errorf("spec: defense.pool is required for the %q kind", DefenseEnsemble)
		}
		for _, m := range pool {
			if _, err := axmult.Lookup(m); err != nil {
				return fmt.Errorf("spec: defense: %w", err)
			}
		}
		if d.EOTSamples < 0 {
			return fmt.Errorf("spec: negative defense.eot_samples %d", d.EOTSamples)
		}
	} else if len(d.Pool) != 0 || d.EOTSamples != 0 {
		return fmt.Errorf("spec: defense pool/eot_samples set without the %q kind", DefenseEnsemble)
	}
	return nil
}

// Load reads and validates a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: reading spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("experiment: spec %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and validates a Spec from JSON. Unknown fields are
// rejected so a typo in a checked-in spec fails loudly instead of
// silently running defaults.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Encode renders the spec as canonical indented JSON with a trailing
// newline — the format of the checked-in testdata/specs files, so
// Load followed by Encode round-trips them byte for byte.
func (s *Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Validate checks everything that can be checked without touching the
// model zoo: attacks resolve, multipliers resolve after alias
// expansion, budgets and counts are sane. Model names are validated
// by the engine's model source at run time.
func (s *Spec) Validate() error {
	if s.Model == "" {
		return fmt.Errorf("spec: model is required")
	}
	if len(s.Attacks) == 0 {
		return fmt.Errorf("spec: at least one attack is required")
	}
	seenAtk := make(map[string]bool, len(s.Attacks))
	for _, name := range s.Attacks {
		if _, err := attack.Find(name); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		// Duplicate attacks would produce two grids that collide in
		// Report.Grid and double-count in WriteCSV.
		if seenAtk[name] {
			return fmt.Errorf("spec: duplicate attack %q", name)
		}
		seenAtk[name] = true
	}
	mults := s.ExpandMultipliers()
	if len(mults) == 0 {
		return fmt.Errorf("spec: at least one multiplier is required")
	}
	// Two columns for one design would collide in Grid.Column: key each
	// on its canonical name, after alias expansion.
	seenMul := make(map[string]bool, len(mults))
	for _, m := range mults {
		name := m
		if m != FloatVictim {
			l, err := axmult.Lookup(m)
			if err != nil {
				return fmt.Errorf("spec: %w", err)
			}
			name = l.Name()
		}
		if seenMul[name] {
			return fmt.Errorf("spec: duplicate %q victim", name)
		}
		seenMul[name] = true
	}
	if len(s.Eps) == 0 {
		return fmt.Errorf("spec: at least one eps budget is required")
	}
	seenEps := make(map[int64]float64, len(s.Eps))
	for _, e := range s.Eps {
		// NaN slips past `e < 0` and both NaN and ±Inf would poison
		// the crafted-example cache's eps quantization, so budgets
		// must be finite and non-negative.
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("spec: non-finite eps %g", e)
		}
		if e < 0 {
			return fmt.Errorf("spec: negative eps %g", e)
		}
		// Budgets that quantise identically alias under Grid.At's
		// round-off tolerance and the crafting cache: the second entry
		// would waste a whole grid row on duplicated cells.
		q := core.EpsKey(e)
		if prev, ok := seenEps[q]; ok {
			return fmt.Errorf("spec: duplicate eps %g (aliases %g)", e, prev)
		}
		seenEps[q] = e
	}
	if s.Samples < 0 {
		return fmt.Errorf("spec: negative samples %d", s.Samples)
	}
	if s.Defense != nil {
		if err := s.Defense.validate(); err != nil {
			return err
		}
	}
	if s.Workers < 0 || s.Batch < 0 {
		return fmt.Errorf("spec: negative workers/batch")
	}
	if p := s.AttackParams; p != nil {
		if math.IsNaN(p.Momentum) || math.IsInf(p.Momentum, 0) || p.Momentum < 0 || p.Momentum > 1 {
			return fmt.Errorf("spec: attack_params.momentum %g outside [0, 1]", p.Momentum)
		}
		if p.Restarts < 0 {
			return fmt.Errorf("spec: negative attack_params.restarts %d", p.Restarts)
		}
		if p.UAPIters < 0 {
			return fmt.Errorf("spec: negative attack_params.uap_iters %d", p.UAPIters)
		}
		// A param that applies to no attack in the suite would be
		// silently ignored — the report would look like a restarted or
		// re-tuned evaluation without being one.
		if p.Momentum > 0 && !s.anyAttack(func(a attack.Attack) bool { _, ok := a.(*attack.MIFGSM); return ok }) {
			return fmt.Errorf("spec: attack_params.momentum set but no MIFGSM attack in the suite")
		}
		if p.Restarts > 1 && !s.anyAttack(func(a attack.Attack) bool { b, ok := a.(*attack.BIM); return ok && b.RandomStart() }) {
			return fmt.Errorf("spec: attack_params.restarts set but no PGD attack in the suite")
		}
		if p.UAPIters > 0 && !s.anyAttack(func(a attack.Attack) bool { _, ok := a.(*attack.UAP); return ok }) {
			return fmt.Errorf("spec: attack_params.uap_iters set but no UAP attack in the suite")
		}
	}
	return nil
}

// anyAttack reports whether some attack in the suite matches pred.
// Callers run after the attack-name loop, so ByName always resolves.
func (s *Spec) anyAttack(pred func(attack.Attack) bool) bool {
	for _, name := range s.Attacks {
		if a := attack.ByName(name); a != nil && pred(a) {
			return true
		}
	}
	return false
}

// ExpandMultipliers resolves the "mnist"/"cifar" set aliases into
// concrete multiplier names, preserving order and leaving explicit
// names (FloatVictim included) untouched. The result is a fresh slice.
func (s *Spec) ExpandMultipliers() []string {
	return expandMultiplierAliases(s.Multipliers)
}

// expandMultiplierAliases implements the alias expansion shared by the
// victim multiplier list and the defense ensemble pool.
func expandMultiplierAliases(mults []string) []string {
	var out []string
	for _, m := range mults {
		switch m {
		case "mnist":
			out = append(out, axmult.MNISTSet()...)
		case "cifar":
			out = append(out, axmult.CIFARSet()...)
		default:
			out = append(out, m)
		}
	}
	return out
}

// CellCount returns the number of (grid, eps) cells Run sweeps, by
// compiling the plan and counting its cells — one grid per attack,
// plus the adaptive EOT grid when the defense block enables it. The
// service sizes job progress with it, and because the plan is the
// single source of truth it cannot drift from what the executor runs.
func (s *Spec) CellCount() int {
	return len(compilePlan(s).Cells)
}

// attackList resolves the attack names and applies AttackParams to
// the families they tune; Validate guarantees resolution succeeds.
func (s *Spec) attackList() []attack.Attack {
	atks := make([]attack.Attack, len(s.Attacks))
	for i, name := range s.Attacks {
		a := attack.ByName(name)
		if p := s.AttackParams; p != nil {
			switch t := a.(type) {
			case *attack.MIFGSM:
				if p.Momentum > 0 {
					t.Mu = p.Momentum
				}
			case *attack.UAP:
				if p.UAPIters > 0 {
					t.Iters = p.UAPIters
				}
			case *attack.BIM:
				if p.Restarts > 1 && t.RandomStart() {
					a = attack.NewRestart(t, p.Restarts)
				}
			}
		}
		atks[i] = a
	}
	return atks
}

// victimModel returns the modelzoo name the victims are built from.
func (s *Spec) victimModel() string {
	if s.VictimModel != "" {
		return s.VictimModel
	}
	return s.Model
}

package defense

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/modelzoo"
	"repro/internal/tensor"
	"repro/internal/train"
)

// fixture trains one small FFNN once and hands out the model-zoo-style
// bundle the defense APIs consume.
var fixture = func() func(t testing.TB) *modelzoo.Model {
	var m *modelzoo.Model
	return func(t testing.TB) *modelzoo.Model {
		t.Helper()
		if m == nil {
			tr := dataset.Digits(900, 51)
			test := dataset.Digits(200, 52)
			net := models.FFNN(28*28, 10, 53)
			net.Name = "tiny-defense"
			train.Fit(net, tr, train.Config{Epochs: 2, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 3, Workers: 1})
			m = &modelzoo.Model{Net: net, Train: tr, Test: test, CleanAcc: 100 * train.Accuracy(net, test, 0)}
		}
		return m
	}
}()

// robustness measures white-box robustness of m under atk at eps over
// the first n test samples: examples are crafted against target (the
// gradient surrogate) and replayed on m.
func robustness(t *testing.T, target attack.Model, m attack.Model, set *dataset.Set, atkName string, eps float64, n int) float64 {
	t.Helper()
	atk, err := attack.Find(atkName)
	if err != nil {
		t.Fatal(err)
	}
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(77 + int64(i)*1_000_003))
	}
	adv := atk.PerturbBatch(target, tensor.Stack(set.X[:n]), set.Y[:n], eps, rngs)
	correct := 0
	for i, p := range tensor.ArgMaxRows(m.LogitsBatch(adv)) {
		if p == set.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// TestAdvTrainImprovesRobustness is the package's reason to exist: a
// PGD-adversarially fine-tuned model must be measurably more robust to
// the white-box attack it trained against than its undefended base,
// without collapsing on clean data.
func TestAdvTrainImprovesRobustness(t *testing.T) {
	base := fixture(t)
	cfg := AdvTrainConfig{Attack: "PGD-linf", Eps: 0.1, Ratio: 0.5, Epochs: 2, Seed: 9, Workers: 1}
	hardened, err := Harden(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const eps, n = 0.1, 60
	// White-box each: craft against the model under evaluation.
	baseRob := robustness(t, base.Net, base.Net, base.Test, "PGD-linf", eps, n)
	hardRob := robustness(t, hardened.Net, hardened.Net, hardened.Test, "PGD-linf", eps, n)
	if hardRob <= baseRob {
		t.Fatalf("adversarial training did not help: hardened %.2f <= base %.2f", hardRob, baseRob)
	}
	if hardened.CleanAcc < base.CleanAcc-20 {
		t.Fatalf("hardened model collapsed on clean data: %.1f%% vs base %.1f%%", hardened.CleanAcc, base.CleanAcc)
	}
}

// TestHardenLeavesBaseUntouched: hardening must never mutate the base
// network (caches key on its weights fingerprint).
func TestHardenLeavesBaseUntouched(t *testing.T) {
	base := fixture(t)
	fp := base.Net.WeightsFingerprint()
	h, err := Harden(context.Background(), base, AdvTrainConfig{Attack: "FGM-linf", Eps: 0.05, Epochs: 1, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Net.WeightsFingerprint() != fp {
		t.Fatal("Harden mutated the base network")
	}
	if h.Net == base.Net {
		t.Fatal("Harden returned the base network itself")
	}
	if h.Net.WeightsFingerprint() == fp {
		t.Fatal("hardened network weights did not change")
	}
	if h.Net.Name != HardenedID("tiny-defense", AdvTrainConfig{Attack: "FGM-linf", Eps: 0.05, Epochs: 1, Seed: 1}) {
		t.Fatalf("hardened network name %q is not its derived id", h.Net.Name)
	}
}

// TestAdvTrainDeterministic: same config, same base, same workers —
// bit-identical hardened weights (the contract inherited from
// train.Fit and the crafting rng scheme).
func TestAdvTrainDeterministic(t *testing.T) {
	base := fixture(t)
	cfg := AdvTrainConfig{Attack: "PGD-linf", Eps: 0.08, Ratio: 0.4, Epochs: 1, Seed: 21, Workers: 2}
	h1, err := Harden(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Harden(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Net.WeightsFingerprint() != h2.Net.WeightsFingerprint() {
		t.Fatal("AdvTrain not deterministic for a fixed (seed, workers) pair")
	}
}

// TestAdvTrainUniversal exercises the set-level (UAP) path — Shafahi
// et al.'s universal adversarial training — end to end.
func TestAdvTrainUniversal(t *testing.T) {
	base := fixture(t)
	h, err := Harden(context.Background(), base, AdvTrainConfig{Attack: "UAP-linf", Eps: 0.1, Ratio: 0.3, Epochs: 1, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.CleanAcc < base.CleanAcc-25 {
		t.Fatalf("UAP training collapsed clean accuracy: %.1f%% vs %.1f%%", h.CleanAcc, base.CleanAcc)
	}
}

// TestAdvTrainCancellation: a cancelled context aborts crafting.
func TestAdvTrainCancellation(t *testing.T) {
	base := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := base.Net.DeepClone()
	if _, err := AdvTrain(ctx, net, base.Train, AdvTrainConfig{Attack: "PGD-linf", Eps: 0.1, Seed: 1, Workers: 1}); err == nil {
		t.Fatal("cancelled AdvTrain must return an error")
	}
}

func TestAdvTrainConfigValidate(t *testing.T) {
	bad := []AdvTrainConfig{
		{Attack: "", Eps: 0.1},
		{Attack: "DeepFool", Eps: 0.1},
		{Attack: "PGD-linf", Eps: 0},
		{Attack: "PGD-linf", Eps: -0.1},
		{Attack: "PGD-linf", Eps: 0.1, Ratio: 1.5},
		{Attack: "PGD-linf", Eps: 0.1, Ratio: -0.5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v must fail validation", cfg)
		}
	}
	// The unknown-attack message is the canonical one from attack.Find.
	err := AdvTrainConfig{Attack: "DeepFool", Eps: 0.1}.Validate()
	if err == nil || !strings.Contains(err.Error(), `unknown attack "DeepFool" (have:`) {
		t.Fatalf("unknown attack error %v must carry attack.Find's canonical message", err)
	}
	if err := (AdvTrainConfig{Attack: "PGD-linf", Eps: 0.1}).Validate(); err != nil {
		t.Fatalf("minimal config must validate: %v", err)
	}
}

// TestHardenedIDRoundTrip pins the derived-id scheme: defaults are
// canonicalised, parsing inverts formatting, and stacked ids split at
// the last mark.
func TestHardenedIDRoundTrip(t *testing.T) {
	id := HardenedID("lenet5-digits", AdvTrainConfig{Attack: "PGD-linf", Eps: 0.1, Seed: 7})
	want := "lenet5-digits+advtrain:PGD-linf:eps=0.1:ratio=0.5:epochs=1:seed=7"
	if id != want {
		t.Fatalf("HardenedID = %q, want %q", id, want)
	}
	if !IsHardenedID(id) || IsHardenedID("lenet5-digits") {
		t.Fatal("IsHardenedID misclassifies")
	}
	base, cfg, err := ParseHardenedID(id)
	if err != nil {
		t.Fatal(err)
	}
	if base != "lenet5-digits" || cfg.Attack != "PGD-linf" || cfg.Eps != 0.1 || cfg.Ratio != 0.5 || cfg.Epochs != 1 || cfg.Seed != 7 {
		t.Fatalf("ParseHardenedID round-trip lost fields: base=%q cfg=%+v", base, cfg)
	}
	if HardenedID(base, cfg) != id {
		t.Fatal("HardenedID(ParseHardenedID(id)) != id")
	}

	stacked := HardenedID(id, AdvTrainConfig{Attack: "FGM-linf", Eps: 0.05, Seed: 1})
	b2, cfg2, err := ParseHardenedID(stacked)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != id || cfg2.Attack != "FGM-linf" {
		t.Fatalf("stacked id split wrongly: base=%q cfg=%+v", b2, cfg2)
	}

	for _, bad := range []string{
		"lenet5-digits",
		"+advtrain:PGD-linf:eps=0.1:ratio=0.5:epochs=1:seed=7",
		"m+advtrain:PGD-linf:eps=0.1:ratio=0.5:epochs=1",
		"m+advtrain:PGD-linf:eps=x:ratio=0.5:epochs=1:seed=7",
		"m+advtrain:PGD-linf:ratio=0.5:eps=0.1:epochs=1:seed=7",
	} {
		if _, _, err := ParseHardenedID(bad); err == nil {
			t.Fatalf("ParseHardenedID(%q) must fail", bad)
		}
	}
}

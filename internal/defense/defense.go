// Package defense models deliberate adversarial defenses, so the
// paper's title question — is approximation *universally* defensive? —
// can be answered against real baselines rather than only from the
// attack side:
//
//   - AdvTrain / Harden implement adversarial training (Madry-style
//     PGD-AT; with a set-level attack, Shafahi et al.'s universal
//     adversarial training): each epoch a deterministic fraction of
//     the training set is replaced by adversarial counterparts crafted
//     against the *current* network with the existing batched attack
//     path, then mixed into plain SGD (train.Fit).
//   - Ensemble is a moving-target victim in the style of MTDeep: each
//     query is served by one configuration drawn (seeded) from a pool
//     of approximate multipliers, so the adversary never knows which
//     inexactness answers.
//
// Hardened models register with the model zoo under a derived
// identifier — "<base>+advtrain:<attack>:eps=…:ratio=…:epochs=…:seed=…"
// — so specs, the experiment engine, axtrain, and axserve jobs all
// load them through the ordinary modelzoo.Get path, sharing the same
// on-disk weight cache. The honest adaptive evaluation of the
// randomized ensemble lives in attack.NewEOT, for which Ensemble
// implements attack.Sampler.
package defense

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelzoo"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/weights"
)

// Fine-tuning hyperparameters of AdvTrain. They are fixed (not part of
// AdvTrainConfig) so a hardened model is fully identified by the
// defense knobs in its derived id.
const (
	advLR       = 0.02
	advMomentum = 0.9
	advLRDecay  = 0.7
	advBatch    = 32
	// advChunk bounds one crafting batch, mirroring core's batch cap.
	advChunk = 32
)

// AdvTrainConfig declares one adversarial training run. The zero
// values of Ratio and Epochs select the defaults (0.5, 1), so the
// derived identifier of a minimally specified config is canonical.
type AdvTrainConfig struct {
	// Attack names the crafting attack (any attack.Names entry; a
	// set-level attack like UAP-linf selects universal adversarial
	// training).
	Attack string
	// Eps is the crafting budget, in the attack's norm.
	Eps float64
	// Ratio is the fraction of each epoch's training samples replaced
	// by adversarial counterparts (0 = default 0.5, 1 = all).
	Ratio float64
	// Epochs is the number of adversarial fine-tuning epochs (0 =
	// default 1). Each epoch re-crafts against the updated network.
	Epochs int
	// Seed drives sample selection, crafting randomness, and the SGD
	// shuffle.
	Seed int64
	// Workers caps crafting and SGD parallelism (0 = GOMAXPROCS).
	// Crafting is worker-independent (per-sample rng streams); the SGD
	// reduction order is not, so — exactly like train.Config.Workers —
	// final weights are bit-deterministic only per (Seed, Workers)
	// pair. Workers is an execution knob and is excluded from
	// HardenedID; the persisted weight cache makes the first training
	// run's result canonical thereafter.
	Workers int
	// Logf, when non-nil, receives progress lines; nil suppresses them.
	Logf func(format string, args ...any)
}

func (c AdvTrainConfig) withDefaults() AdvTrainConfig {
	if c.Ratio == 0 {
		c.Ratio = 0.5
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate checks the config without touching any model: the attack
// resolves (sharing attack.Find's canonical message) and the numeric
// knobs are sane.
func (c AdvTrainConfig) Validate() error {
	if c.Attack == "" {
		return errors.New("defense: advtrain attack is required")
	}
	if _, err := attack.Find(c.Attack); err != nil {
		return fmt.Errorf("defense: %w", err)
	}
	if math.IsNaN(c.Eps) || math.IsInf(c.Eps, 0) || c.Eps <= 0 {
		return fmt.Errorf("defense: advtrain eps %g must be finite and positive", c.Eps)
	}
	if math.IsNaN(c.Ratio) || c.Ratio < 0 || c.Ratio > 1 {
		return fmt.Errorf("defense: advtrain ratio %g outside [0, 1]", c.Ratio)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("defense: negative advtrain epochs %d", c.Epochs)
	}
	return nil
}

// AdvTrain adversarially fine-tunes net in place on set and returns
// the final epoch's mean training loss. Each epoch: a deterministic
// Ratio-sized subset of the samples is replaced by adversarial
// counterparts crafted against the current weights (batched, with
// per-sample rng streams — the crafted set is independent of Workers),
// and one SGD epoch runs over the mixed set. Cancelling ctx stops
// between crafting chunks and returns ctx.Err(); the network is left
// in its last consistent state.
func AdvTrain(ctx context.Context, net *nn.Network, set *dataset.Set, cfg AdvTrainConfig) (float64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if set == nil || set.Len() == 0 {
		return 0, errors.New("defense: adversarial training needs a non-empty training set")
	}
	atk, err := attack.Find(cfg.Attack)
	if err != nil {
		return 0, fmt.Errorf("defense: %w", err)
	}
	lr := advLR
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		mixed, err := adversarialEpoch(ctx, net, set, atk, cfg, epoch)
		if err != nil {
			return 0, err
		}
		lastLoss = train.Fit(net, mixed, train.Config{
			Epochs:   1,
			Batch:    advBatch,
			LR:       lr,
			Momentum: advMomentum,
			Seed:     cfg.Seed + int64(epoch)*7_919 + 1,
			Workers:  cfg.Workers,
		})
		if cfg.Logf != nil {
			cfg.Logf("advtrain epoch %d/%d loss=%.4f lr=%.4f", epoch+1, cfg.Epochs, lastLoss, lr)
		}
		lr *= advLRDecay
	}
	return lastLoss, nil
}

// adversarialEpoch returns set with a Ratio-sized subset replaced by
// adversarial counterparts crafted against the current net. Selection
// and crafting randomness are functions of (Seed, epoch, sample
// index) only, so the mixed set is identical however crafting is
// chunked or parallelised.
func adversarialEpoch(ctx context.Context, net *nn.Network, set *dataset.Set, atk attack.Attack, cfg AdvTrainConfig, epoch int) (*dataset.Set, error) {
	k := int(cfg.Ratio*float64(set.Len()) + 0.5)
	if k == 0 {
		return set, nil
	}
	pick := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(epoch)*7_919))
	idx := pick.Perm(set.Len())[:k]
	sort.Ints(idx)
	labels := make([]int, k)
	samples := make([]*tensor.T, k)
	for i, si := range idx {
		labels[i] = set.Y[si]
		samples[i] = set.X[si]
	}

	var adv *tensor.T
	if sa, ok := atk.(attack.SetAttack); ok {
		// Universal adversarial training: one image-agnostic delta per
		// epoch over the whole chosen subset (Shafahi et al. 2020).
		rng := rand.New(rand.NewSource(cfg.Seed*69_069 + int64(epoch) + 1))
		adv = sa.PerturbSet(ctx, net, tensor.Stack(samples), labels, cfg.Eps, rng)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	} else {
		adv = tensor.New(append([]int{k}, samples[0].Shape...)...)
		if err := core.RunChunked(ctx, k, advChunk, cfg.Workers, func(lo, hi int) {
			xs := tensor.Stack(samples[lo:hi])
			rngs := make([]*rand.Rand, hi-lo)
			for i := range rngs {
				// Keyed by the sample's index in the full set, so the
				// stream survives re-chunking and differs per epoch.
				rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(idx[lo+i])*1_000_003 + int64(epoch)*7_919 + 17))
			}
			crafted := atk.PerturbBatch(net, xs, labels[lo:hi], cfg.Eps, rngs)
			copy(adv.RowView(lo, hi).Data, crafted.Data)
		}); err != nil {
			return nil, err
		}
	}

	x := append([]*tensor.T(nil), set.X...)
	for i, si := range idx {
		x[si] = adv.Row(i).Clone()
	}
	return &dataset.Set{Name: set.Name, X: x, Y: set.Y, Classes: set.Classes}, nil
}

// Harden adversarially fine-tunes a detached copy of the base model
// and returns it as a new model sharing the base's data. The base
// network is never mutated (its weights fingerprint — and with it
// every cache entry keyed on it — stays valid). The returned network
// is named by HardenedID.
func Harden(ctx context.Context, base *modelzoo.Model, cfg AdvTrainConfig) (*modelzoo.Model, error) {
	cfg = cfg.withDefaults()
	tr, err := base.TrainingSet()
	if err != nil {
		return nil, fmt.Errorf("defense: cannot harden: %w", err)
	}
	net := base.Net.DeepClone()
	net.Name = HardenedID(base.Net.Name, cfg)
	if _, err := AdvTrain(ctx, net, tr, cfg); err != nil {
		return nil, err
	}
	m := &modelzoo.Model{Net: net, Train: tr, Test: base.Test}
	m.CleanAcc = 100 * train.Accuracy(net, base.Test, 0)
	return m, nil
}

// hardenedMark separates a base model name from the advtrain scheme's
// parameters in a derived identifier.
const hardenedMark = "+advtrain:"

// HardenedID returns the model-zoo identifier of the hardened variant
// of base under cfg. Defaults are applied first, so equivalent configs
// share one id (and one weight-cache entry). Execution knobs (Workers,
// Logf) are excluded, mirroring the service's JobID contract.
func HardenedID(base string, cfg AdvTrainConfig) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("%s%s%s:eps=%s:ratio=%s:epochs=%d:seed=%d",
		base, hardenedMark, cfg.Attack,
		strconv.FormatFloat(cfg.Eps, 'g', -1, 64),
		strconv.FormatFloat(cfg.Ratio, 'g', -1, 64),
		cfg.Epochs, cfg.Seed)
}

// IsHardenedID reports whether id names an adversarially trained
// derived model.
func IsHardenedID(id string) bool { return strings.Contains(id, hardenedMark) }

// ParseHardenedID splits a derived identifier back into its base model
// name and config. The base may itself be a derived id (stacked
// hardening): the split is at the last advtrain mark.
func ParseHardenedID(id string) (base string, cfg AdvTrainConfig, err error) {
	i := strings.LastIndex(id, hardenedMark)
	if i < 0 {
		return "", cfg, fmt.Errorf("defense: %q is not a hardened model id", id)
	}
	base = id[:i]
	fields := strings.Split(id[i+len(hardenedMark):], ":")
	if base == "" || len(fields) != 5 {
		return "", cfg, fmt.Errorf("defense: malformed hardened model id %q", id)
	}
	cfg.Attack = fields[0]
	for fi, want := range []string{"eps", "ratio", "epochs", "seed"} {
		k, v, ok := strings.Cut(fields[fi+1], "=")
		if !ok || k != want {
			return "", cfg, fmt.Errorf("defense: malformed hardened model id %q: want %s=…, got %q", id, want, fields[fi+1])
		}
		var perr error
		switch want {
		case "eps":
			cfg.Eps, perr = strconv.ParseFloat(v, 64)
		case "ratio":
			cfg.Ratio, perr = strconv.ParseFloat(v, 64)
		case "epochs":
			cfg.Epochs, perr = strconv.Atoi(v)
		case "seed":
			cfg.Seed, perr = strconv.ParseInt(v, 10, 64)
		}
		if perr != nil {
			return "", cfg, fmt.Errorf("defense: malformed hardened model id %q: %w", id, perr)
		}
	}
	return base, cfg, nil
}

// init registers the advtrain scheme with the model zoo: any consumer
// that imports defense (the experiment engine, the cmd tools, the
// service) can load "<base>+advtrain:…" ids through modelzoo.Get, with
// training running on first use and weights persisted like any zoo
// model's.
func init() {
	modelzoo.RegisterDeriver(modelzoo.Deriver{Match: IsHardenedID, Build: buildHardened})
}

// buildHardened is the zoo deriver: resolve the base (re-entrant Get),
// load the hardened weights from the cache, or train and persist them.
// Cancelling ctx — a cancelled axserve job, Ctrl-C in axrobust —
// aborts training at crafting-chunk granularity; nothing is cached or
// persisted, and a later Get retries.
func buildHardened(ctx context.Context, id string) (*modelzoo.Model, error) {
	base, cfg, err := ParseHardenedID(id)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("defense: hardened model id %q: %w", id, err)
	}
	bm, err := modelzoo.GetCtx(ctx, base)
	if err != nil {
		return nil, err
	}
	path := modelzoo.WeightPath(id)
	net := bm.Net.DeepClone()
	net.Name = id
	switch err := weights.Load(net, path); {
	case err == nil:
		// The training set stays lazy on this path (loading hardened
		// weights needs no data); chaining to the base's TrainingSet
		// keeps stacked hardening of a disk-cached variant working.
		m := &modelzoo.Model{
			Net:     net,
			TrainFn: func() *dataset.Set { ts, _ := bm.TrainingSet(); return ts },
			Test:    bm.Test,
		}
		m.CleanAcc = 100 * train.Accuracy(net, bm.Test, 0)
		return m, nil
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("modelzoo: corrupt or unreadable weight cache for %s at %s (delete it to retrain): %w", id, path, err)
	}
	if os.Getenv("AXREPRO_VERBOSE") != "" {
		cfg.Logf = func(f string, a ...any) { fmt.Printf("[harden %s] "+f+"\n", append([]any{id}, a...)...) }
	}
	m, err := Harden(ctx, bm, cfg)
	if err != nil {
		return nil, err
	}
	if err := weights.Save(m.Net, path); err != nil {
		return nil, fmt.Errorf("defense: saving %s: %w", id, err)
	}
	return m, nil
}

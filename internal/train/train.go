// Package train implements minibatch SGD training of internal/nn
// networks with data parallelism across goroutines: each worker owns a
// network clone (shared weights, private weight-gradient buffers),
// per-batch worker gradients are reduced into the master buffers, and
// a momentum update is applied. Cloning here is only about gradient
// accumulation — the forward/backward passes themselves are stateless.
// Also provides parallel accuracy evaluation used throughout the
// experiments.
package train

import (
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config controls Fit.
type Config struct {
	Epochs int
	Batch  int
	// LR is the initial learning rate. LR <= 0 is the documented
	// default sentinel and selects 0.05; any positive value — however
	// tiny — is used as given.
	LR       float64
	Momentum float64
	// LRDecay multiplies the learning rate after each epoch (1 = none).
	LRDecay float64
	Seed    int64
	// Workers caps data parallelism (0 = GOMAXPROCS). For a fixed
	// (Seed, Workers) pair Fit is deterministic: same data, same final
	// weights, bit for bit. Different worker counts reduce per-worker
	// gradients in a different floating-point order, so weights across
	// worker counts agree only approximately — intended, and pinned by
	// the determinism tests.
	Workers int
	// Logf, when non-nil, receives one progress line per epoch; nil
	// suppresses logging.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.LRDecay == 0 {
		c.LRDecay = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Fit trains net on set with softmax cross-entropy and momentum SGD.
// It returns the mean loss of the final epoch.
func Fit(net *nn.Network, set *dataset.Set, cfg Config) float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	masterParams := net.Params()
	vel := make([][]float32, len(masterParams))
	for i, p := range masterParams {
		vel[i] = make([]float32, len(p.W))
	}

	workers := cfg.Workers
	clones := make([]*nn.Network, workers)
	cloneParams := make([][]nn.Param, workers)
	for w := 0; w < workers; w++ {
		clones[w] = net.Clone()
		cloneParams[w] = clones[w].Params()
	}

	idx := make([]int, set.Len())
	for i := range idx {
		idx[i] = i
	}

	lr := cfg.LR
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			losses := make([]float64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := clones[w]
					for bi := w; bi < len(batch); bi += workers {
						i := batch[bi]
						losses[w] += float64(c.AccumGrad(set.X[i], set.Y[i]))
					}
				}(w)
			}
			wg.Wait()
			// Reduce worker grads into master, update, and zero.
			scale := float32(1.0 / float64(len(batch)))
			for pi, mp := range masterParams {
				g := mp.G
				for w := 0; w < workers; w++ {
					wg := cloneParams[w][pi].G
					for i, v := range wg {
						g[i] += v
						wg[i] = 0
					}
				}
				v := vel[pi]
				mom := float32(cfg.Momentum)
				step := float32(lr)
				for i := range g {
					v[i] = mom*v[i] - step*g[i]*scale
					mp.W[i] += v[i]
					g[i] = 0
				}
			}
			for _, l := range losses {
				epochLoss += l
			}
			batches++
		}
		lastLoss = epochLoss / float64(set.Len())
		if cfg.Logf != nil {
			cfg.Logf("epoch %d/%d loss=%.4f lr=%.4f", epoch+1, cfg.Epochs, lastLoss, lr)
		}
		lr *= cfg.LRDecay
	}
	return lastLoss
}

// Predictor is anything that classifies a batch (float or quantized
// networks alike): LogitsBatch takes [N, sampleShape...] and returns
// [N, classes].
type Predictor interface {
	LogitsBatch(xs *tensor.T) *tensor.T
}

// Accuracy evaluates pred on up to limit samples of set (0 = all) in
// parallel and returns the fraction correct. Both float nn networks
// and compiled axnn networks are concurrency-safe, so a shared
// predictor is fine.
//
// Each call scores one sample, as a one-sample view of its storage.
// Batching these calls would fill more kernel lanes, but the pooled
// workspaces grow with the batch, and Accuracy runs during model setup,
// where that growth sets the process's peak memory without a clear
// setup-time gain. Bound the workspace before batching here.
func Accuracy(pred Predictor, set *dataset.Set, limit int) float64 {
	s := set.Slice(limit)
	workers := min(runtime.GOMAXPROCS(0), s.Len())
	if workers == 0 {
		return 0
	}
	correct := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < s.Len(); i += workers {
				if tensor.ArgMax(pred.LogitsBatch(s.X[i].Unsqueeze()).Data) == s.Y[i] {
					correct[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(s.Len())
}

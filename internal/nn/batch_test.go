package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// stackInputs builds a batch of random conv-net inputs plus the
// samples it stacks, for scoring one at a time.
func stackInputs(n int, shape []int, seed int64) (*tensor.T, []*tensor.T) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.T, n)
	for i := range xs {
		x := tensor.New(shape...)
		for j := range x.Data {
			x.Data[j] = rng.Float32()
		}
		xs[i] = x
	}
	return tensor.Stack(xs), xs
}

// TestLogitsBatchMatchesScalar is the golden batch/one-sample parity
// test for the float engine: LogitsBatch row r must equal the logits of
// sample r scored alone, as a one-sample batch, bit for bit (identical
// per-sample accumulation order).
func TestLogitsBatchMatchesScalar(t *testing.T) {
	net := smallConvNet(21)
	batch, xs := stackInputs(7, []int{2, 6, 6}, 22)
	out := net.LogitsBatch(batch)
	if len(out.Shape) != 2 || out.Shape[0] != 7 {
		t.Fatalf("LogitsBatch shape %v", out.Shape)
	}
	for r, x := range xs {
		want := net.LogitsBatch(x.Unsqueeze()).Data
		got := out.Row(r).Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sample %d logit %d: batch %v != one-sample %v", r, j, got[j], want[j])
			}
		}
	}
}

// TestLossGradBatchMatchesScalar pins bit-for-bit parity of the
// input-gradient path between a batch and its samples taken one at a
// time — the property that lets chunked crafting reproduce the same
// perturbations whatever the chunk size.
func TestLossGradBatchMatchesScalar(t *testing.T) {
	net := smallConvNet(23)
	batch, xs := stackInputs(5, []int{2, 6, 6}, 24)
	labels := []int{0, 1, 2, 3, 4}
	losses, grads := net.LossGradBatch(batch, labels)
	if len(grads.Shape) != 4 || grads.Shape[0] != 5 {
		t.Fatalf("LossGradBatch grad shape %v", grads.Shape)
	}
	for r, x := range xs {
		wantLoss, wantGrad := net.LossGradBatch(x.Unsqueeze(), labels[r:r+1])
		if losses[r] != wantLoss[0] {
			t.Fatalf("sample %d loss: batch %v != one-sample %v", r, losses[r], wantLoss[0])
		}
		got := grads.Row(r).Data
		for j := range wantGrad.Data {
			if got[j] != wantGrad.Data[j] {
				t.Fatalf("sample %d grad[%d]: batch %v != one-sample %v", r, j, got[j], wantGrad.Data[j])
			}
		}
	}
}

// TestBatchSizeOneMatchesScalar guards the degenerate batch on the
// training path: AccumGrad's one-sample pass reports the same loss as
// LossGradBatch on that sample's batch of one.
func TestBatchSizeOneMatchesScalar(t *testing.T) {
	net := smallConvNet(25)
	batch, xs := stackInputs(1, []int{2, 6, 6}, 26)
	want, _ := net.LossGradBatch(batch, []int{2})
	if got := net.Clone().AccumGrad(xs[0], 2); got != want[0] {
		t.Fatalf("AccumGrad loss %v != batch-of-one loss %v", got, want[0])
	}
}

// TestDenseOnlyBatch covers the FFNN path ([N,F] flat batches through
// Flatten passthrough and Dense).
func TestDenseOnlyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := &Network{
		Name: "ff",
		Layers: []Layer{
			&Flatten{},
			NewDense(12, 9, rng),
			&ReLU{},
			NewDense(9, 4, rng),
		},
	}
	batch, xs := stackInputs(6, []int{12}, 28)
	out := net.LogitsBatch(batch)
	if out.Shape[0] != 6 || out.Shape[1] != 4 {
		t.Fatalf("dense batch output shape %v", out.Shape)
	}
	for r, x := range xs {
		want := net.LogitsBatch(x.Unsqueeze()).Data
		got := out.Row(r).Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("FFNN sample %d diverged", r)
			}
		}
	}
}

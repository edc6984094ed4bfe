package axnn

import (
	"sync"
	"testing"

	"repro/internal/axmult"
	"repro/internal/tensor"
)

// TestLogitsBatchMatchesScalar is the golden batch/one-sample parity
// test for the integer engine: LogitsBatch row r must equal the logits
// of sample r scored alone, as a one-sample batch, bit for bit, for both the exact and an approximate
// multiplier (the whole pipeline is per-sample deterministic integer
// arithmetic, so any divergence is a batching bug).
func TestLogitsBatchMatchesScalar(t *testing.T) {
	net := tinyNet(30)
	q, err := Compile(net, calibSet(32, 31), Options{})
	if err != nil {
		t.Fatal(err)
	}
	xs := calibSet(9, 32)
	batch := tensor.Stack(xs)
	for _, eng := range []*Network{q, q.WithMultiplier(axmult.MustLookup("mul8u_JV3"))} {
		out := eng.LogitsBatch(batch)
		if out.Shape[0] != 9 {
			t.Fatalf("LogitsBatch shape %v", out.Shape)
		}
		for r, x := range xs {
			want := logits1(eng, x)
			got := out.Row(r).Data
			if len(got) != len(want) {
				t.Fatalf("row %d has %d logits, want %d", r, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("[%s] sample %d logit %d: batch %v != one-sample %v",
						eng.MultiplierName(), r, j, got[j], want[j])
				}
			}
		}
	}
}

// TestLogitsBatchApproxDense covers the conv-free FFNN path through
// the batched dense stage.
func TestLogitsBatchApproxDense(t *testing.T) {
	net := tinyNet(33)
	q, err := Compile(net, calibSet(16, 34), Options{ApproxDense: true})
	if err != nil {
		t.Fatal(err)
	}
	q = q.WithMultiplier(axmult.MustLookup("mul8u_FTA"))
	xs := calibSet(4, 35)
	out := q.LogitsBatch(tensor.Stack(xs))
	for r, x := range xs {
		want := logits1(q, x)
		got := out.Row(r).Data
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("approx-dense sample %d diverged", r)
			}
		}
	}
}

// logits1 scores one sample as a one-sample batch.
func logits1(q *Network, x *tensor.T) []float32 {
	return q.LogitsBatch(x.Unsqueeze()).Data
}

// TestConcurrentLogitsBatch: batched inference on a shared engine from
// many goroutines must stay deterministic.
func TestConcurrentLogitsBatch(t *testing.T) {
	net := tinyNet(36)
	q, err := Compile(net, calibSet(16, 37), Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.Stack(calibSet(6, 38))
	want := q.LogitsBatch(batch)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := q.LogitsBatch(batch)
			for j := range want.Data {
				if got.Data[j] != want.Data[j] {
					t.Error("concurrent LogitsBatch diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

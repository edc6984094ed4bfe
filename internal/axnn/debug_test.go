package axnn

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/modelzoo"
)

// TestDiagnoseQuantizationDepth traces float vs quantized activations
// layer by layer on the deepest model. Run explicitly with
// AXREPRO_DIAG=1 go test ./internal/axnn -run Diagnose -v
func TestDiagnoseQuantizationDepth(t *testing.T) {
	if os.Getenv("AXREPRO_DIAG") == "" {
		t.Skip("diagnostic; set AXREPRO_DIAG=1 to run")
	}
	m, err := modelzoo.Get("alexnet-objects")
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(m.Net, m.Test.Inputs(64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := m.Test.X[0]
	floats := m.Net.ForwardTrace(x.Unsqueeze())

	in := qtensor{n: 1, shape: x.Shape, data: q.inQP.QuantizeSlice(x.Data), qp: q.inQP}
	ws := q.getWS()
	defer q.putWS(ws)
	for i, l := range q.layers {
		var logits []float32
		in, logits = l.forward(q, ws, in)
		var deq []float32
		if logits != nil {
			deq = logits
		} else {
			deq = in.qp.DequantizeSlice(in.data)
		}
		f := floats[i].Data
		if len(f) != len(deq) {
			t.Fatalf("layer %d length mismatch %d vs %d", i, len(f), len(deq))
		}
		var dot, nf, nq float64
		for j := range f {
			dot += float64(f[j]) * float64(deq[j])
			nf += float64(f[j]) * float64(f[j])
			nq += float64(deq[j]) * float64(deq[j])
		}
		cos := dot / (math.Sqrt(nf)*math.Sqrt(nq) + 1e-12)
		fmt.Printf("layer %2d %-12T cos=%.4f  |f|=%.2f |q|=%.2f\n", i, l, cos, math.Sqrt(nf), math.Sqrt(nq))
	}
}

package models

import (
	"testing"

	"repro/internal/tensor"
)

func TestLeNet5Shapes(t *testing.T) {
	cases := []struct{ c, h, w int }{{1, 28, 28}, {3, 32, 32}}
	for _, cse := range cases {
		net := LeNet5(cse.c, cse.h, cse.w, 10, 1)
		out := net.LogitsBatch(tensor.New(1, cse.c, cse.h, cse.w))
		if out.Len() != 10 {
			t.Fatalf("LeNet5(%v) produced %d logits", cse, out.Len())
		}
	}
}

func TestLeNet5LayerCount(t *testing.T) {
	// Per the paper: 2 conv+pool blocks + flattening conv + 2 dense.
	net := LeNet5(1, 28, 28, 10, 1)
	convs, pools, denses := 0, 0, 0
	for _, l := range net.Layers {
		switch l.(type) {
		case interface{ OutSize(int, int) (int, int) }:
			convs++
		}
	}
	_ = pools
	_ = denses
	if convs != 3 {
		t.Fatalf("LeNet5 has %d conv layers, want 3", convs)
	}
}

func TestAlexNetShapes(t *testing.T) {
	net := AlexNet(3, 32, 32, 10, 2)
	out := net.LogitsBatch(tensor.New(1, 3, 32, 32))
	if out.Len() != 10 {
		t.Fatalf("AlexNet produced %d logits", out.Len())
	}
}

func TestAlexNetStructure(t *testing.T) {
	// Five conv layers, three pools, two dense layers (Section IV-A).
	net := AlexNet(3, 32, 32, 10, 3)
	convs := 0
	for _, l := range net.Layers {
		if _, ok := l.(interface{ OutSize(int, int) (int, int) }); ok {
			convs++
		}
	}
	if convs != 5 {
		t.Fatalf("AlexNet has %d conv layers, want 5", convs)
	}
}

func TestFFNNShapes(t *testing.T) {
	net := FFNN(28*28, 10, 4)
	out := net.LogitsBatch(tensor.New(1, 1, 28, 28))
	if out.Len() != 10 {
		t.Fatalf("FFNN produced %d logits", out.Len())
	}
}

func TestSeedsChangeInit(t *testing.T) {
	a := LeNet5(1, 28, 28, 10, 1)
	b := LeNet5(1, 28, 28, 10, 2)
	wa, wb := a.Params()[0].W, b.Params()[0].W
	same := true
	for i := range wa {
		if wa[i] != wb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical init")
	}
}

func TestSameSeedSameInit(t *testing.T) {
	a := AlexNet(3, 32, 32, 10, 7)
	b := AlexNet(3, 32, 32, 10, 7)
	wa, wb := a.Params()[0].W, b.Params()[0].W
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed gave different init")
		}
	}
}

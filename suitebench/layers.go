package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/core"
	"repro/internal/modelzoo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// layerReps is how many times each layer call is timed; the median is
// reported.
const layerReps = 5

// timeCall returns the median wall time of fn over layerReps calls, ms.
func timeCall(fn func()) float64 {
	ts := make([]float64, layerReps)
	for i := range ts {
		t := time.Now()
		fn()
		ts[i] = ms(time.Since(t))
	}
	return median(ts)
}

// nnLayers times the float network on the workload's own batch: the
// whole forward (LogitsBatch) and input gradient (LossGradBatch), and
// each layer's Forward and Backward, named conv1..3, dense1..2 and
// other (activations, pooling, flatten). It also returns the
// multiply-accumulates of one sample's forward pass.
func nnLayers(m *modelzoo.Model, n int, out map[string]float64) (macsPerSample float64) {
	net := m.Net
	set := m.Test.Slice(n)
	xs := tensor.Stack(set.X)
	out["nn.fwd_ms"] = timeCall(func() { net.LogitsBatch(xs) })
	out["nn.grad_ms"] = timeCall(func() { net.LossGradBatch(xs, set.Y) })

	names := make([]string, len(net.Layers))
	var convs, denses int
	for i, l := range net.Layers {
		switch l.(type) {
		case *nn.Conv2D:
			convs++
			names[i] = fmt.Sprintf("conv%d", convs)
		case *nn.Dense:
			denses++
			names[i] = fmt.Sprintf("dense%d", denses)
		default:
			names[i] = "other"
		}
	}
	fwd := make([][]float64, len(net.Layers))
	bwd := make([][]float64, len(net.Layers))
	for r := 0; r < layerReps; r++ {
		states := make([]nn.State, len(net.Layers))
		x := xs
		for i, l := range net.Layers {
			t := time.Now()
			y := l.Forward(x, &states[i])
			fwd[i] = append(fwd[i], ms(time.Since(t)))
			if r == 0 {
				macsPerSample += layerMACs(l, y, n)
			}
			x = y
		}
		dy := tensor.New(x.Shape...)
		for i := range dy.Data {
			dy.Data[i] = 0.01
		}
		for i := len(net.Layers) - 1; i >= 0; i-- {
			t := time.Now()
			dy = net.Layers[i].Backward(dy, &states[i])
			bwd[i] = append(bwd[i], ms(time.Since(t)))
		}
	}
	for _, k := range []string{"conv1", "conv2", "conv3", "dense1", "dense2", "other"} {
		out["nn."+k+".fwd_ms"], out["nn."+k+".bwd_ms"] = 0, 0
	}
	for i, name := range names {
		out["nn."+name+".fwd_ms"] += median(fwd[i])
		out["nn."+name+".bwd_ms"] += median(bwd[i])
	}
	return macsPerSample
}

// layerMACs counts one sample's multiply-accumulates in a conv or
// dense layer from its weights and output size.
func layerMACs(l nn.Layer, y *tensor.T, n int) float64 {
	switch l := l.(type) {
	case *nn.Conv2D:
		return float64(len(l.W)) * float64(len(y.Data)/n/l.OutC)
	case *nn.Dense:
		return float64(len(l.W))
	}
	return 0
}

// axnnLogits times LogitsBatch of each design's compiled AxDNN on the
// workload's batch and returns the median over designs, ms.
func axnnLogits(m *modelzoo.Model, n int, designs []string) (float64, error) {
	victims, err := core.BuildAxVictims(m.Net, m.Test, designs, axnn.Options{})
	if err != nil {
		return 0, err
	}
	xs := tensor.Stack(m.Test.Slice(n).X)
	var per []float64
	for _, v := range victims {
		bm, ok := v.Factory().(attack.BatchModel)
		if !ok {
			return 0, fmt.Errorf("victim %s has no LogitsBatch", v.Name)
		}
		per = append(per, timeCall(func() { bm.LogitsBatch(xs) }))
	}
	return median(per), nil
}

// gradsPerSample is the number of input-gradient evaluations one
// sample costs under the attack configuration named by a craft span's
// attack attribute (attack.ConfigKey, e.g. "PGD-linf[steps=20,...]").
func gradsPerSample(configKey string) (float64, error) {
	name, _, _ := strings.Cut(configKey, "[")
	a, err := attack.Find(name)
	if err != nil {
		return 0, err
	}
	switch a := a.(type) {
	case *attack.BIM:
		return float64(a.Steps), nil
	case *attack.MIFGSM:
		return float64(a.Steps), nil
	case *attack.FGM:
		return 1, nil
	}
	return 0, fmt.Errorf("no gradient count for attack %s", name)
}

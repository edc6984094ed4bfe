package nn

import "repro/internal/tensor"

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct{}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.T, st *State) *tensor.T {
	y := tensor.New(x.Shape...)
	if cap(st.mask) < len(x.Data) {
		st.mask = make([]bool, len(x.Data))
	}
	mask := st.mask[:len(x.Data)]
	st.mask = mask
	yd := y.Data[:len(x.Data)]
	for i, v := range x.Data {
		if v <= 0 {
			mask[i] = false
			continue
		}
		mask[i] = true
		yd[i] = v
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.T, st *State) *tensor.T {
	dx := tensor.New(dy.Shape...)
	mask := st.mask[:len(dy.Data)]
	dxd := dx.Data[:len(dy.Data)]
	for i, g := range dy.Data {
		if mask[i] {
			dxd[i] = g
		}
	}
	return dx
}

// Flatten reshapes [N,C,H,W] batches to [N,C*H*W]; flat [N,F] batches
// pass through unchanged.
type Flatten struct{}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.T, st *State) *tensor.T {
	st.shape = append(st.shape[:0], x.Shape...)
	return x.Reshape(x.Shape[0], x.RowLen())
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.T, st *State) *tensor.T {
	return dy.Reshape(st.shape...)
}

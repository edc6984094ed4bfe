package axnn

import "sync"

// workspace is the per-worker scratch arena for one pass through the
// layer stack: im2col columns, zero-point activation sums, channel-
// block accumulators, ping-pong activation buffers, and the dense
// float staging area. Workspaces are checked out of the Network's
// sync.Pool per run call (one per concurrent goroutine), presized
// at Compile from the calibration shape, and grown on demand — so the
// steady-state forward pass allocates only its returned logits.
type workspace struct {
	cols []uint8
	aSum []int32
	acc  []int32
	vals []float32

	// act holds the ping-pong activation buffers: each layer reads its
	// input from one buffer and writes its output into the other, so
	// intermediate activations never allocate and never alias.
	act [2][]uint8
	cur int
}

// wsHint carries the buffer maxima derived at Compile time: a full
// column group of each conv stage (groupLanes), whatever the chunk
// size, and one sample of each other buffer (activation buffers
// additionally scale with the runtime chunk size).
type wsHint struct {
	cols  int // max group im2col footprint: kk * groupLanes(p) over conv layers
	lanes int // max group lanes (aSum)
	acc   int // channel-block accumulator footprint: convBlock group rows, or a dense width
	vol   int // max per-sample activation volume (any layer, and input)
	dense int // max dense output width (vals, per sample)
}

func newWorkspace(h wsHint) *workspace {
	return &workspace{
		cols: make([]uint8, h.cols+gatherPad),
		aSum: make([]int32, h.lanes),
		acc:  make([]int32, h.acc),
		vals: make([]float32, h.dense),
		act:  [2][]uint8{make([]uint8, h.vol), make([]uint8, h.vol)},
	}
}

// nextAct flips to the other activation buffer and returns it sized to
// n codes. The returned slice is valid until the next-but-one nextAct
// call on this workspace.
func (w *workspace) nextAct(n int) []uint8 {
	w.cur ^= 1
	buf := &w.act[w.cur]
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	return (*buf)[:n]
}

// u8, i32, and f32 return scratch slices of exactly n elements, growing
// the backing buffer when a larger shape than the Compile-time hint
// shows up. Contents are unspecified; callers must initialise.
func u8(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	return (*buf)[:n]
}

func i32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

func f32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// getWS checks a workspace out of the network's pool; putWS returns it.
// The pool is shared by every WithMultiplier/WithReferenceKernel copy
// of a compiled network (the layer geometry is identical), so chunked
// evaluation fan-outs in internal/core reuse the same arenas across
// goroutines and grid cells instead of re-allocating per call.
func (q *Network) getWS() *workspace {
	return q.pool.Get().(*workspace)
}

func (q *Network) putWS(w *workspace) {
	q.pool.Put(w)
}

func newWSPool(h wsHint) *sync.Pool {
	return &sync.Pool{New: func() any { return newWorkspace(h) }}
}

// Package axnn is the AxDNN accelerator simulator: it compiles a
// trained float network (internal/nn) into an integer inference engine
// with affine-quantized activations and weights, int32 accumulators,
// and a pluggable 8x8 multiplier LUT for the convolution layers — the
// Go equivalent of running TFApprox with an EvoApprox multiplier.
//
// Semantics follow the paper's methodology (Fig. 3):
//
//   - Weights and activations are fixed-point quantized (default 8 bit,
//     configurable Qlevel).
//   - Only convolution products go through the approximate multiplier
//     (Section IV-A replaces multipliers in the conv layers); dense
//     layers use the exact design's table unless Options.ApproxDense is
//     set (needed for the FFNN of Fig. 1, which has no conv layers).
//   - Zero-point cross terms are corrected exactly, so with the exact
//     multiplier the engine reproduces standard uint8 post-training
//     quantization.
//
// Conv and dense stages run on one kernel: a dense layer is a 1x1 conv
// over a 1x1 input. It is a weight-stationary LUT GEMM over tap-major
// columns (lut_gather.go): each weight code reads one contiguous
// 256-entry row of the transposed multiplier table, output channels
// are blocked, the batch's samples fill the lanes, and all scratch
// comes from a pooled per-Network workspace arena (see workspace.go).
// AVX2 hosts run its gather microkernel, others a Go loop over the
// same operands. Every epilogue but the logits requantizes through
// integer-exact tables (requant.go). The pre-tiling naive kernels are
// retained behind WithReferenceKernel for bit-for-bit parity tests and
// the BenchmarkTiledVsSeed regression gate.
//
// Networks produced by Compile are immutable after SetMultiplier and
// safe for concurrent LogitsBatch calls.
package axnn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/axmult"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Options configures compilation.
type Options struct {
	// Bits is the activation/weight code width (the paper's Qlevel).
	// 0 means 8.
	Bits uint
	// ApproxDense routes dense-layer products through the active
	// multiplier too (used for the FFNN study and ablations); without
	// it they run on the exact design's table (mul8u_1JFF).
	ApproxDense bool
	// NoZeroPointCorrection drops the exact zero-point cross terms in
	// the conv accumulation; dense stages keep them. Only for the
	// ablation bench: it breaks the affine semantics and shows why
	// TFApprox-style engines must carry the correction adders.
	NoZeroPointCorrection bool
	// Multiplier is the initial multiplier; nil means the exact design.
	Multiplier *axmult.LUT
}

// Network is a compiled quantized network.
type Network struct {
	Name   string
	layers []qlayer
	mul    []uint16 // active LUT table, index a<<8|w
	mulT   []uint16 // transposed table, index w<<8|a (weight-major rows)
	mulID  string
	cfgKey string // compile-time identity sans multiplier; see ModelKey
	inQP   quant.Params
	ref    bool // route conv/dense through the retained pre-tiling kernels

	// pool hands out per-goroutine workspace arenas sized from hint.
	// It is a pointer so WithMultiplier/WithReferenceKernel copies
	// share it.
	pool *sync.Pool
	hint wsHint
}

// qtensor is a batch of n quantized activations sharing one code
// layout: shape is the PER-SAMPLE shape and data packs the n samples
// contiguously ([n * vol(shape)] codes).
type qtensor struct {
	n     int
	shape []int
	data  []uint8
	qp    quant.Params
}

// qlayer either produces another quantized batch or, for the final
// stage, float logits ([n * classes], row-major by sample). ws is the
// caller-owned scratch arena; it is nil only on the reference-kernel
// path, where layers allocate per call as the seed engine did.
type qlayer interface {
	forward(net *Network, ws *workspace, in qtensor) (qtensor, []float32)
}

// Compile quantizes a trained float network using the calibration set
// to derive per-layer activation ranges.
func Compile(n *nn.Network, calib []*tensor.T, opts Options) (*Network, error) {
	if len(calib) == 0 {
		return nil, fmt.Errorf("axnn: empty calibration set")
	}
	bits := opts.Bits
	// Per-layer output ranges over the calibration set. Activation
	// ranges use the *average* of per-sample extrema rather than the
	// global min/max: deep networks produce rare outlier activations
	// that would otherwise blow up the scale and starve the common
	// range of resolution (the standard moving-min/max calibration).
	mins := make([]float32, len(n.Layers))
	maxs := make([]float32, len(n.Layers))
	var inMin, inMax float32
	for _, x := range calib {
		lo, hi := quant.Range(x.Data)
		inMin += lo
		inMax += hi
		for i, o := range n.ForwardTrace(x.Unsqueeze()) {
			l2, h2 := quant.Range(o.Data)
			mins[i] += l2
			maxs[i] += h2
		}
	}
	norm := float32(len(calib))
	inMin /= norm
	inMax /= norm
	for i := range mins {
		mins[i] /= norm
		maxs[i] /= norm
	}

	q := &Network{
		Name:   n.Name,
		cfgKey: ConfigKey(n, calib, opts),
		inQP:   quant.Calibrate(inMin, inMax, bits),
	}
	// Shape walk alongside layer compilation: the workspace hint
	// records the largest im2col and accumulator footprints of a full
	// column group and the largest per-sample activation footprint, so
	// pooled arenas are right-sized from their first checkout. A dense
	// stage counts as a conv with one output pixel.
	shape := append([]int(nil), calib[0].Shape...)
	q.hint.vol = volOf(shape)
	inQP := q.inQP
	for i, l := range n.Layers {
		outQP := quant.Calibrate(mins[i], maxs[i], bits)
		last := i == len(n.Layers)-1
		switch t := l.(type) {
		case *nn.Conv2D:
			c := newQConv(t, inQP, outQP, bits, false)
			c.noZP = opts.NoZeroPointCorrection
			q.layers = append(q.layers, c)
			h, w := shape[1], shape[2]
			outH := (h+2*t.Pad-t.K)/t.Stride + 1
			outW := (w+2*t.Pad-t.K)/t.Stride + 1
			q.hint.group(t.InC*t.K*t.K, outH*outW)
			shape = []int{t.OutC, outH, outW}
		case *nn.Dense:
			q.layers = append(q.layers, newQDense(t, inQP, outQP, bits, last, opts.ApproxDense))
			q.hint.group(t.In, 1)
			shape = []int{t.Out}
		case *nn.ReLU:
			q.layers = append(q.layers, &qReLU{outQP: outQP, lut: quant.RequantLUT(inQP, outQP, func(v float32) float32 {
				if v < 0 {
					return 0
				}
				return v
			})})
		case *nn.AvgPool2D:
			stride := poolStride(t)
			q.layers = append(q.layers, &qAvgPool{k: t.K, stride: stride, outQP: outQP, lut: quant.RequantLUT(inQP, outQP, nil)})
			shape = []int{shape[0], (shape[1]-t.K)/stride + 1, (shape[2]-t.K)/stride + 1}
		case *nn.Flatten:
			// No stage: a dense stage reads any sample shape as flat.
			shape = []int{volOf(shape)}
			continue
		default:
			return nil, fmt.Errorf("axnn: unsupported layer type %T", l)
		}
		q.hint.vol = max(q.hint.vol, volOf(shape))
		inQP = outQP
	}
	if !opts.NoZeroPointCorrection {
		q.buildRequant()
	}
	q.pool = newWSPool(q.hint)
	if opts.Multiplier != nil {
		q.SetMultiplier(opts.Multiplier)
	} else {
		q.SetMultiplier(axmult.MustLookup("mul8u_1JFF"))
	}
	return q, nil
}

// ConfigKey captures everything that determines a compiled network's
// behavior apart from the (swappable) multiplier: source weights,
// calibration content, code width, and the dense/zero-point switches.
// Two processes that Compile from the same inputs derive the same key,
// which is what lets a persistent prediction cache outlive the process
// (see ModelKey), and what lets core memoise compiled networks.
func ConfigKey(n *nn.Network, calib []*tensor.T, opts Options) string {
	h := fnv.New64a()
	var w [4]byte
	for _, x := range calib {
		for _, d := range x.Shape {
			binary.LittleEndian.PutUint32(w[:], uint32(d))
			h.Write(w[:])
		}
		for _, v := range x.Data {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
			h.Write(w[:])
		}
	}
	bits := opts.Bits
	if bits == 0 {
		bits = 8 // quant.Calibrate's default width
	}
	return fmt.Sprintf("axnn/v1|src=%s:%016x|calib=%d:%016x|bits=%d|ad=%t|nozp=%t",
		n.Name, n.WeightsFingerprint(), len(calib), h.Sum64(), bits, opts.ApproxDense, opts.NoZeroPointCorrection)
}

// ModelKey is the network's stable content identity: the compile-time
// ConfigKey plus the active multiplier. It satisfies core's ModelKeyer,
// so prediction memos key on configuration rather than pointer
// identity — equal-config networks share entries in-process, and a
// persistent cache tier can serve predictions across restarts.
func (q *Network) ModelKey() string { return q.cfgKey + "|mul=" + q.mulID }

func volOf(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}

func poolStride(p *nn.AvgPool2D) int {
	if p.Stride == 0 {
		return p.K
	}
	return p.Stride
}

// SetMultiplier installs the approximate multiplier used by conv (and,
// with Options.ApproxDense, dense) layers. It returns the network for
// chaining.
func (q *Network) SetMultiplier(l *axmult.LUT) *Network {
	q.mul = l.Table()
	q.mulT = l.TableT()
	q.mulID = l.Name()
	return q
}

// WithMultiplier returns a shallow copy of the network running on the
// given multiplier. The copy shares the (immutable) quantized layers
// and the workspace pool, so building one AxDNN per multiplier from a
// single compilation is cheap — the harness uses this to fan a grid
// out across designs.
func (q *Network) WithMultiplier(l *axmult.LUT) *Network {
	c := *q
	c.mul = l.Table()
	c.mulT = l.TableT()
	c.mulID = l.Name()
	return &c
}

// WithReferenceKernel returns a shallow copy that routes conv and
// dense stages through the retained pre-tiling kernel (naive
// activation-major LUT indexing, per-call scratch). It exists for the
// bit-for-bit parity tests and the BenchmarkTiledVsSeed baseline;
// production paths never set it.
func (q *Network) WithReferenceKernel() *Network {
	c := *q
	c.ref = true
	return &c
}

// MultiplierName returns the active multiplier's name.
func (q *Network) MultiplierName() string { return q.mulID }

// LogitsBatch quantizes a batch [N, sampleShape...], runs the integer
// pipeline and returns the [N, classes] float logits. The whole batch
// shares one quantization pass and pooled im2col/accumulator
// workspaces per conv stage, so the LUT work is amortised; row r is the
// same bytes whatever else shares its batch. Safe for concurrent use; callers that want
// parallelism split their batch across goroutines (core does, per
// chunk), each pass checking out its own pooled workspace.
func (q *Network) LogitsBatch(xs *tensor.T) *tensor.T {
	n := xs.Shape[0]
	out := q.run(xs.Data, xs.Shape[1:], n)
	return tensor.FromSlice(out, n, len(out)/n)
}

// run quantizes n packed samples and pushes them through the layer
// stack on a pooled workspace.
func (q *Network) run(data []float32, sampleShape []int, n int) []float32 {
	in := qtensor{n: n, shape: sampleShape, qp: q.inQP}
	var ws *workspace
	if q.ref {
		// Reference path: allocate per call, exactly as the seed engine.
		in.data = q.inQP.QuantizeSlice(data)
	} else {
		ws = q.getWS()
		defer q.putWS(ws)
		in.data = ws.nextAct(len(data))
		q.inQP.QuantizeInto(in.data, data)
	}
	for _, l := range q.layers {
		var logits []float32
		in, logits = l.forward(q, ws, in)
		if logits != nil {
			return logits
		}
	}
	// Networks not ending in a Dense layer: dequantize the final codes.
	return in.qp.DequantizeSlice(in.data)
}

// outBuf returns the output activation buffer for a layer: the other
// ping-pong arena buffer normally, a fresh allocation on the
// reference-kernel path.
func outBuf(net *Network, ws *workspace, n int) []uint8 {
	if net.ref {
		return make([]uint8, n)
	}
	return ws.nextAct(n)
}

// buildRequant gives every conv and dense stage that writes codes its
// integer-exact requantizer, folding a directly following ReLU into it
// where both maps compose.
func (q *Network) buildRequant() {
	for i, l := range q.layers {
		c, ok := l.(*qConv)
		if !ok || c.logits {
			continue
		}
		var relu *qReLU
		if i+1 < len(q.layers) {
			relu, _ = q.layers[i+1].(*qReLU)
		}
		if relu != nil {
			if c.stairs = c.buildStairs(relu.lut); c.stairs != nil {
				c.stairsQP = relu.outQP
				relu.folded = true
				continue
			}
		}
		c.stairs, c.stairsQP = c.buildStairs(nil), c.outQP
	}
}

// qReLU and requantization stages are 256-entry code maps.
type qReLU struct {
	lut   []uint8
	outQP quant.Params
	// folded marks a ReLU whose code map the conv before it already
	// applied (buildRequant); the conv's output then passes through,
	// except on the reference-kernel path.
	folded bool
}

func (r *qReLU) forward(net *Network, ws *workspace, in qtensor) (qtensor, []float32) {
	if r.folded && !net.ref {
		return in, nil
	}
	// Elementwise code map: the batch is one flat pass.
	out := qtensor{n: in.n, shape: in.shape, data: outBuf(net, ws, len(in.data)), qp: r.outQP}
	lut := (*[256]uint8)(r.lut)
	for i, c := range in.data {
		out.data[i] = lut[c]
	}
	return out, nil
}

// qAvgPool averages codes inside each window (affine codes average like
// their real values) and requantizes via a 256-entry map.
type qAvgPool struct {
	k, stride int
	lut       []uint8
	outQP     quant.Params
}

func (p *qAvgPool) forward(net *Network, ws *workspace, in qtensor) (qtensor, []float32) {
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	outH := (h-p.k)/p.stride + 1
	outW := (w-p.k)/p.stride + 1
	out := qtensor{n: in.n, shape: []int{c, outH, outW}, data: outBuf(net, ws, in.n*c*outH*outW), qp: p.outQP}
	kk := p.k * p.k
	half := kk / 2
	for s := 0; s < in.n; s++ {
		sIn := in.data[s*c*h*w:]
		sOut := out.data[s*c*outH*outW:]
		for ci := 0; ci < c; ci++ {
			src := sIn[ci*h*w:]
			dst := sOut[ci*outH*outW:]
			if p.k == 2 && p.stride == 2 && !net.ref {
				// The ubiquitous 2x2/2 window, unrolled: row pairs are
				// walked once with no inner window loops. Arithmetic is
				// identical to the general path below. The reference
				// engine takes the general path so the seed side of
				// BenchmarkTiledVsSeed keeps the pre-PR layer cost.
				for oi := 0; oi < outH; oi++ {
					r0 := src[(2*oi)*w : (2*oi)*w+w]
					r1 := src[(2*oi+1)*w : (2*oi+1)*w+w]
					d := dst[oi*outW : oi*outW+outW]
					for oj := range d {
						sum := int(r0[2*oj]) + int(r0[2*oj+1]) + int(r1[2*oj]) + int(r1[2*oj+1])
						d[oj] = p.lut[(sum+2)/4]
					}
				}
				continue
			}
			for oi := 0; oi < outH; oi++ {
				for oj := 0; oj < outW; oj++ {
					sum := 0
					for ki := 0; ki < p.k; ki++ {
						row := (oi*p.stride + ki) * w
						for kj := 0; kj < p.k; kj++ {
							sum += int(src[row+oj*p.stride+kj])
						}
					}
					dst[oi*outW+oj] = p.lut[(sum+half)/kk]
				}
			}
		}
	}
	return out, nil
}

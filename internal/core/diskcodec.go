package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Stable codecs and keys for the persistent cache tier. Unlike the
// in-memory craftKey/predKey — which lean on pointer identity and are
// therefore process-local — the disk tier keys every artifact by
// content: weights fingerprints, dataset content hashes, the attack's
// canonical ConfigKey, and the quantised EpsKey. A cold process over a
// warm store recomputes the same strings and finds the same records.
//
// Values are versioned little-endian frames; decode validates the
// magic, the declared shape, and the payload length, so a key
// collision or a truncated value degrades to a recompute, never to a
// malformed tensor.

const (
	tensorMagic = "axt1"
	predsMagic  = "axp1"
)

// encodeTensor frames t as: magic | ndims u32 | dims u32... | float32
// bits (LE).
func encodeTensor(t *tensor.T) []byte {
	buf := make([]byte, 0, len(tensorMagic)+4+4*len(t.Shape)+4*len(t.Data))
	buf = append(buf, tensorMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Shape)))
	for _, d := range t.Shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	for _, v := range t.Data {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

func decodeTensor(buf []byte) (*tensor.T, error) {
	if len(buf) < len(tensorMagic)+4 || string(buf[:len(tensorMagic)]) != tensorMagic {
		return nil, fmt.Errorf("core: bad tensor frame")
	}
	buf = buf[len(tensorMagic):]
	ndims := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if ndims == 0 || ndims > 8 || len(buf) < int(ndims)*4 {
		return nil, fmt.Errorf("core: bad tensor rank %d", ndims)
	}
	shape := make([]int, ndims)
	vol := 1
	for i := range shape {
		d := binary.LittleEndian.Uint32(buf[4*i:])
		if d == 0 || d > 1<<24 {
			return nil, fmt.Errorf("core: bad tensor dim %d", d)
		}
		shape[i] = int(d)
		vol *= int(d)
	}
	buf = buf[4*ndims:]
	if len(buf) != 4*vol {
		return nil, fmt.Errorf("core: tensor payload %d bytes, want %d", len(buf), 4*vol)
	}
	data := make([]float32, vol)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return tensor.FromSlice(data, shape...), nil
}

// encodePreds frames one victim's predictions as: magic | n u32 |
// int32 labels (LE).
func encodePreds(preds []int) []byte {
	buf := make([]byte, 0, len(predsMagic)+4+4*len(preds))
	buf = append(buf, predsMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(preds)))
	for _, p := range preds {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(p)))
	}
	return buf
}

func decodePreds(buf []byte) ([]int, error) {
	if len(buf) < len(predsMagic)+4 || string(buf[:len(predsMagic)]) != predsMagic {
		return nil, fmt.Errorf("core: bad predictions frame")
	}
	buf = buf[len(predsMagic):]
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if len(buf) != 4*int(n) {
		return nil, fmt.Errorf("core: predictions payload %d bytes, want %d", len(buf), 4*n)
	}
	preds := make([]int, n)
	for i := range preds {
		preds[i] = int(int32(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	return preds, nil
}

// setFingerprint hashes a test set's content — every sample's raw
// float bits plus the labels — so the disk key survives process
// restarts that rebuild the dataset objects. Sets are small relative
// to crafting cost (one pass over the data the attack will ascend
// dozens of times), so this is recomputed per lookup rather than
// memoised against mutable pointers.
func setFingerprint(test *dataset.Set) uint64 {
	h := fnv.New64a()
	var w [4]byte
	for i, x := range test.X {
		binary.LittleEndian.PutUint32(w[:], uint32(test.Y[i]))
		h.Write(w[:])
		for _, v := range x.Data {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// batchFingerprint hashes a crafted batch's shape and content for the
// prediction-tier key.
func batchFingerprint(b *tensor.T) uint64 {
	h := fnv.New64a()
	var w [4]byte
	for _, d := range b.Shape {
		binary.LittleEndian.PutUint32(w[:], uint32(d))
		h.Write(w[:])
	}
	for _, v := range b.Data {
		binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
		h.Write(w[:])
	}
	return h.Sum64()
}

// craftDiskKey is the stable identity of one crafted batch: source
// weights, sample content, canonical attack configuration, quantised
// budget, seed. Everything the crafting rng streams and gradient
// ascent observe — and nothing process-local.
func craftDiskKey(t *CraftTarget, epsQ, seed int64) string {
	return fmt.Sprintf("craft/v1|src=%s:%016x|set=%s:%d:%016x|atk=%s|eps=%d|seed=%d",
		t.src.Name, t.srcFP, t.test.Name, t.test.Len(), t.setFP(), t.atkKey, epsQ, seed)
}

// predDiskKey is the stable identity of one victim's predictions over
// one crafted batch, or ok=false when the model has no stable identity
// to key by (then the prediction stays memory-tier only).
func predDiskKey(m attack.Model, rows int, batchFP uint64) (string, bool) {
	var id string
	switch mm := m.(type) {
	case ModelKeyer:
		id = mm.ModelKey()
	case fingerprinter:
		id = fmt.Sprintf("nnfp:%016x", mm.WeightsFingerprint())
	default:
		return "", false
	}
	return fmt.Sprintf("pred/v1|model=%s|batch=%d:%016x", id, rows, batchFP), true
}

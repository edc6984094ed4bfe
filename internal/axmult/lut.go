package axmult

import "sync"

// LUT is a multiplier compiled to an exhaustive 256x256 lookup table —
// the representation TFApprox-style accelerator simulators consume.
// Index layout: table[a<<8 | b].
type LUT struct {
	id    string
	table []uint16

	// tOnce guards the lazily built transposed table (index b<<8 | a).
	// Weight-stationary GEMM kernels read the transposed layout: with
	// the weight code fixed, the 256 possible activation codes sit in
	// one contiguous 512-byte row instead of 512 bytes apart.
	tOnce  sync.Once
	tableT []uint16
}

// Compile evaluates m over the full 8x8 input space.
func Compile(m Multiplier) *LUT {
	t := make([]uint16, 1<<16)
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			t[a<<8|b] = m.Mul(uint8(a), uint8(b))
		}
	}
	return &LUT{id: m.Name(), table: t}
}

// Name implements Multiplier.
func (l *LUT) Name() string { return l.id }

// Mul implements Multiplier.
func (l *LUT) Mul(a, b uint8) uint16 {
	return l.table[uint32(a)<<8|uint32(b)]
}

// Table exposes the raw table for hot loops (length 65536, index
// a<<8|b). Callers must not modify it.
func (l *LUT) Table() []uint16 { return l.table }

// TableT exposes the transposed table (length 65536, index b<<8|a),
// built on first use and cached on the LUT — so registry users
// (Lookup caches LUT instances process-wide) pay the 64 KB transpose
// once per design. TableT()[b<<8|a] == Table()[a<<8|b] exactly.
// Its capacity holds one more (zero) entry: gather kernels read each
// product as a 4-byte word at its 2-byte offset, and the last entry's
// word ends in that spare one. Callers must not modify it.
func (l *LUT) TableT() []uint16 {
	l.tOnce.Do(func() {
		t := make([]uint16, 1<<16, 1<<16+1)
		for a := 0; a < 256; a++ {
			row := l.table[a<<8 : a<<8+256]
			for b, v := range row {
				t[b<<8|a] = v
			}
		}
		l.tableT = t
	})
	return l.tableT
}

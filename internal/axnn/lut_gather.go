package axnn

import "repro/internal/cpufeat"

// Gather GEMM for the conv layers. The columns are tap-major with the
// samples of a group side by side (cols[q*ld+s*p+i], im2colCodes with
// ld = group lanes), so a layer with few output pixels per sample
// (LeNet-5's conv2 and its 1x1 conv3) fills the lanes across the batch.
// Groups hold at most gatherLanes lanes (or one sample, if that is
// more), which bounds the column scratch whatever the chunk size.
//
// Two microkernels compute the same sums over the same operands. On
// AVX2 hosts (lut_amd64.s) eight lanes sit side by side in one YMM
// register and one VPGATHERDD fetches their eight products from the
// weight code's row of the transposed multiplier table. Elsewhere a
// plain Go loop walks a strip of lanes per tap, with the strip's sums
// in a stack array. All of a block's taps are reduced before the int32
// sums go to the requantize epilogue; integer addition is exact and
// order-free, so both give the reference kernel's bytes.

// useGather selects the AVX2 microkernels. It is set once, from the
// CPU's features; only tests switch it (export_test.go).
var useGather = cpufeat.AVX2

// LUTKernel names the conv LUT microkernel this process runs: "avx2"
// for the gather kernel, "go" for the portable Go loop.
func LUTKernel() string {
	if useGather {
		return "avx2"
	}
	return "go"
}

const (
	// gatherLanes bounds the lanes of one column group and of one
	// microkernel call, so one call stays short: assembly loops cannot
	// be preempted.
	gatherLanes = 512
	// goLanes is the Go microkernel's lane strip: four rows of int32
	// sums in 4 KB of stack.
	goLanes = 256
	// gatherPad is how many column bytes past the last lane of the
	// last tap the AVX2 microkernel may read (a masked tail block loads
	// whole 8- or 16-byte code vectors).
	gatherPad = 15
	// lutLen is the transposed table's length. The AVX2 kernel reads
	// each product as a 4-byte word at a 2-byte offset, so the table
	// needs capacity for one more entry (axmult.LUT.TableT allocates
	// it).
	lutLen = 1 << 16
)

// groupLanes is the lane count of a full column group of a conv stage
// with p output pixels per sample: as many whole samples as fit in
// gatherLanes, or one.
func groupLanes(p int) int {
	return max(1, gatherLanes/p) * p
}

// lutGather computes, for channels r < rows (2 or 4) and lanes j < n,
//
//	acc[r*ldAcc+j] = Σ_{q<kk} lutT[w[r*wRow+q]<<8 | cols[q*ldCols+j]]
//
// overwriting acc. It checks every operand's extent, including the
// gatherPad bytes past the columns and the table's spare entry, then
// runs the microkernel at most gatherLanes lanes per call. wRow and
// ldAcc may be 0: a single channel then runs as copies of itself that
// store the same sums in one place.
func lutGather(acc []int32, ldAcc int, cols []uint8, ldCols int, w []uint8, wRow int, lutT []uint16, kk, n, rows int) {
	if n == 0 {
		return
	}
	if (rows != 2 && rows != 4) || kk < 1 || (rows-1)*ldAcc+n > len(acc) ||
		(kk-1)*ldCols+n+gatherPad > len(cols) || (rows-1)*wRow+kk > len(w) ||
		len(lutT) != lutLen || cap(lutT) <= lutLen {
		panic("axnn: gather GEMM operands out of range")
	}
	for j := 0; j < n; j += gatherLanes {
		nj := min(gatherLanes, n-j)
		if !useGather {
			lutGather4Go(acc[j:], ldAcc, cols[j:], ldCols, w, wRow, lutArr(lutT), kk, nj, rows)
			continue
		}
		lutGather4AVX2(&acc[j], ldAcc, &cols[j], ldCols, &w[0], wRow, &lutT[0], kk, nj, rows)
	}
}

// lutGather4Go is the Go microkernel: lutGather4AVX2's sums over the
// same operands, goLanes lanes at a time. lutGather is its only caller
// and checks the operand extents first.
func lutGather4Go(acc []int32, ldAcc int, cols []uint8, ldCols int, w []uint8, wRow int, t *[lutLen]uint16, kk, n, rows int) {
	var strip [4][goLanes]int32
	for j := 0; j < n; j += goLanes {
		s0 := strip[0][:min(goLanes, n-j)]
		s1, s2, s3 := strip[1][:len(s0)], strip[2][:len(s0)], strip[3][:len(s0)]
		clear(s0)
		clear(s1)
		clear(s2)
		clear(s3)
		for q := 0; q < kk; q++ {
			col := cols[q*ldCols+j:][:len(s0)]
			h0, h1 := uint16(w[q])<<8, uint16(w[wRow+q])<<8
			if rows == 2 {
				for i, a := range col {
					s0[i] += int32(t[h0|uint16(a)])
					s1[i] += int32(t[h1|uint16(a)])
				}
				continue
			}
			h2, h3 := uint16(w[2*wRow+q])<<8, uint16(w[3*wRow+q])<<8
			for i, a := range col {
				v := uint16(a)
				s0[i] += int32(t[h0|v])
				s1[i] += int32(t[h1|v])
				s2[i] += int32(t[h2|v])
				s3[i] += int32(t[h3|v])
			}
		}
		copy(acc[j:][:len(s0)], s0)
		copy(acc[ldAcc+j:][:len(s0)], s1)
		if rows == 4 {
			copy(acc[2*ldAcc+j:][:len(s0)], s2)
			copy(acc[3*ldAcc+j:][:len(s0)], s3)
		}
	}
}

// colSums writes the per-lane code sums of the kk tap rows of cols
// (row stride len(sum), gatherPad bytes of slack) into sum and returns
// it.
func colSums(sum []int32, cols []uint8, kk int) []int32 {
	ld := len(sum)
	if ld == 0 {
		return sum
	}
	if kk < 1 || kk*ld+gatherPad > len(cols) {
		panic("axnn: column sums operands out of range")
	}
	if !useGather {
		colSumsGo(sum, cols, kk)
		return sum
	}
	for j := 0; j < ld; j += gatherLanes {
		colSumsAVX2(&sum[j], &cols[j], ld, kk, min(gatherLanes, ld-j))
	}
	return sum
}

// colSumsGo is colSumsAVX2's Go microkernel over all len(sum) lanes.
func colSumsGo(sum []int32, cols []uint8, kk int) {
	clear(sum)
	for q := 0; q < kk; q++ {
		row := cols[q*len(sum):][:len(sum)]
		for j, a := range row {
			sum[j] += int32(a)
		}
	}
}

// lutArr views the transposed table as a fixed-size array: one length
// check per kernel call, after which every uint16-composed index
// (uint16(w)<<8 | uint16(a)) is provably in bounds.
func lutArr(lutT []uint16) *[lutLen]uint16 {
	return (*[lutLen]uint16)(lutT)
}

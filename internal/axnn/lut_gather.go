package axnn

import "repro/internal/cpufeat"

// Gather GEMM for the conv layers on AVX2 hosts. Where qconv.go's Go
// kernels walk one pixel at a time, the gather kernel puts eight
// output pixels side by side in one YMM register and fetches their
// eight products with one VPGATHERDD from the weight code's row of the
// transposed multiplier table. All of a block's taps are reduced in
// registers, so the int32 sums go straight to the requantize epilogue.
//
// The columns are tap-major with the samples of a group side by side
// (cols[q*ld+s*p+i], im2colCodes with ld = group lanes), so a layer
// with few output pixels per sample (LeNet-5's conv2 and its 1x1
// conv3) fills the lanes across the batch. Groups hold at most
// gatherLanes lanes (or one sample, if that is more), which bounds the
// column scratch whatever the chunk size.

// useGather selects the gather kernel for qConv. It is set once, from
// the CPU's features; only tests switch it (export_test.go).
var useGather = cpufeat.AVX2

// LUTKernel names the conv LUT kernel this process runs: "avx2" for
// the gather kernel, "go" for the portable Go kernels.
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
	// minGatherLanes is the fewest lanes (samples x pixels) a conv
	// stage needs to take the gather kernel; smaller spans, such as a
	// single sample through a 1x1 output, fill too few of a block's
	// lanes and stay on the Go dot kernels.
	minGatherLanes = 8
	// gatherPad is how many column bytes past the last lane of the
	// last tap the microkernel may read (a masked tail block loads
	// whole 8- or 16-byte code vectors).
	gatherPad = 15
	// lutLen is the transposed table's length. The kernel reads each
	// product as a 4-byte word at a 2-byte offset, so the table needs
	// capacity for one more entry (axmult.LUT.TableT allocates it).
	lutLen = 1 << 16
)

// gatherReady reports whether a conv stage of n samples x p pixels
// runs on the gather kernel with table lutT.
func gatherReady(lutT []uint16, n, p int) bool {
	return useGather && n*p >= minGatherLanes && len(lutT) == lutLen && cap(lutT) > lutLen
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
		lutGather4AVX2(&acc[j], ldAcc, &cols[j], ldCols, &w[0], wRow, &lutT[0], kk, min(gatherLanes, n-j), rows)
	}
}

// forwardGather is qConv.forward on the gather kernel: per group of
// samples, tap-major columns and their per-lane code sums, then one
// kernel pass per block of channels and the requantize epilogue per
// sample. Channels run in blocks of four, then a block of two; a last
// block that would run past the channel count starts earlier,
// overlapping the block before it, and its overlapping rows are
// recomputed but not requantized again. A single channel runs as two
// copies of itself.
func (c *qConv) forwardGather(net *Network, ws *workspace, in, out qtensor, h, w, outH, outW int) {
	p := outH * outW
	kk := c.inC * c.k * c.k
	inVol := c.inC * h * w
	group := max(1, gatherLanes/p)
	for s0 := 0; s0 < in.n; s0 += group {
		gs := min(group, in.n-s0)
		ld := gs * p
		cols := u8(&ws.cols, kk*ld+gatherPad)
		for s := 0; s < gs; s++ {
			x := in.data[(s0+s)*inVol : (s0+s+1)*inVol]
			im2colCodes(x, c.inC, h, w, c.k, c.stride, c.pad, in.qp.Zero, cols[s*p:], ld)
		}
		aSum := colSums(i32(&ws.aSum, ld), cols, kk)
		acc := i32(&ws.acc, convBlock*ld)
		for oc := 0; oc < c.outC; {
			rows := 2
			if c.outC-oc >= 3 && c.outC >= convBlock {
				rows = convBlock
			}
			oc0, wRow, ldAcc := max(0, min(oc, c.outC-rows)), kk, ld
			if c.outC == 1 {
				wRow, ldAcc = 0, 0
			}
			lutGather(acc, ldAcc, cols, ld, c.wCodes[oc0*kk:], wRow, net.mulT, kk, ld, rows)
			// Rows before oc were written by the previous block.
			skip := oc - oc0
			live := min(rows, c.outC-oc0) - skip
			for s := 0; s < gs; s++ {
				sOut := out.data[(s0+s)*c.outC*p:]
				c.epilogue(net, acc[skip*ld+s*p:], ld, aSum[s*p:(s+1)*p], sOut, oc, live, 0, p, p)
			}
			oc += live
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
	if kk < 1 || (kk-1)*ld+ld+gatherPad > len(cols) {
		panic("axnn: column sums operands out of range")
	}
	for j := 0; j < ld; j += gatherLanes {
		colSumsAVX2(&sum[j], &cols[j], ld, kk, min(gatherLanes, ld-j))
	}
	return sum
}

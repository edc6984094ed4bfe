package axnn

// lutGather4AVX2 is the gather GEMM's AVX2 microkernel (lut_amd64.s):
// two or four channels x n lanes. lutGather is its only caller and
// checks the operand extents first.
//
//go:noescape
func lutGather4AVX2(acc *int32, ldAcc int, cols *uint8, ldCols int, w *uint8, wRow int, lutT *uint16, kk, n, rows int)

// colSumsAVX2 sums the tap rows of the gather kernel's columns per
// lane (lut_amd64.s). colSums checks the extents first.
//
//go:noescape
func colSumsAVX2(sum *int32, cols *uint8, ld, kk, n int)

package nn

// gemm4AVX2 is the lane GEMM's AVX2 microkernel (gemm_amd64.s): four
// rows x n lanes. gemm4 is its only caller, on operands whose extents
// gemmLanes checked.
//
//go:noescape
func gemm4AVX2(c *float32, ldc int, a *float32, aRow, aStep int, b *float32, ldb int, bias *float32, k, n int)

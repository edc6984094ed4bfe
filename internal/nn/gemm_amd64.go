package nn

// gemm4AVX2 is the lane GEMM's AVX2 microkernel (gemm_amd64.s): four
// rows x n lanes. gemmLanes is its only caller and checks the operand
// extents first.
//
//go:noescape
func gemm4AVX2(c *float32, ldc int, a *float32, aRow, aStep int, b *float32, ldb int, bias *float32, k, n int)

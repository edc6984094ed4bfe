//go:build !amd64

package nn

func gemm4AVX2(c *float32, ldc int, a *float32, aRow, aStep int, b *float32, ldb int, bias *float32, k, n int) {
	panic("nn: AVX2 lane kernel called on a non-amd64 build")
}

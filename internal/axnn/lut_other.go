//go:build !amd64

package axnn

func lutGather4AVX2(acc *int32, ldAcc int, cols *uint8, ldCols int, w *uint8, wRow int, lutT *uint16, kk, n, rows int) {
	panic("axnn: AVX2 gather kernel called on a non-amd64 build")
}

func colSumsAVX2(sum *int32, cols *uint8, ld, kk, n int) {
	panic("axnn: AVX2 column sums called on a non-amd64 build")
}

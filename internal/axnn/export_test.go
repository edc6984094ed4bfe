package axnn

// forceGoKernel switches qConv to the Go kernels and returns a func
// that restores the previous choice.
func forceGoKernel() (restore func()) {
	prev := useGather
	useGather = false
	return func() { useGather = prev }
}

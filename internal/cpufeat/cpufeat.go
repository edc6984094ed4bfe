// Package cpufeat reports the CPU features the repository's assembly
// kernels need, probed once at package init. It has no flags or
// options: a kernel that needs a feature runs only where the probe
// finds it, and the portable Go kernels run everywhere else.
package cpufeat

// AVX2 reports whether the CPU has AVX2 and the OS saves its YMM
// state, so 256-bit integer and float instructions (including
// VPGATHERDD) may run.
var AVX2 = hasAVX2()

package cpufeat

// hasAVX2 probes CPUID and XGETBV (cpufeat_amd64.s).
func hasAVX2() bool

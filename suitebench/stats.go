package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and that percentile. With fewer than twenty samples no
// percentile at or above the median has ten beyond it; the tail is
// then the median itself, reported as percentile 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// s[n-11] has exactly ten samples beyond it.
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calibSink keeps the calibration kernel's result live.
var calibSink float32

// calibKernel is a fixed single-thread float kernel that no change to
// the program can speed up: a 96x96 matrix product repeated 20 times,
// about 15 ms on an idle 2020s x86 core. Its time tracks the host, so
// a spread that shows here too comes from the machine, not the code.
func calibKernel() {
	const n = 96
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) * 0.5
		b[i] = float32(i%5) * 0.25
	}
	for rep := 0; rep < 20; rep++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				av := a[i*n+k]
				row := c[i*n : i*n+n]
				for j, bv := range b[k*n : k*n+n] {
					row[j] += av * bv
				}
			}
		}
	}
	calibSink = c[7]
}

// calibrate times the kernel reps times and returns each time in ms.
func calibrate(reps int) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t := time.Now()
		calibKernel()
		out[i] = ms(time.Since(t))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

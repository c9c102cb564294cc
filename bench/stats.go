package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of ds in nanoseconds, linearly
// interpolated between the two nearest ranks. ds is not modified.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo]) + frac*float64(s[lo+1]-s[lo])
}

// medianNs is the median of ds in nanoseconds.
func medianNs(ds []time.Duration) float64 { return quantile(ds, 0.5) }

// medianF is the median of xs.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters reads the cumulative allocation counters of the whole
// process; deltas around a call give its allocations (every goroutine's).
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// allocsOf reports the heap objects allocated while fn runs.
func allocsOf(fn func()) float64 {
	before, _ := memCounters()
	fn()
	after, _ := memCounters()
	return float64(after - before)
}

// perCallNs times n back-to-back calls of fn as one interval and returns
// the mean per call; for operations too short to time one by one.
func perCallNs(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

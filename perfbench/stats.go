package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of an ascending slice, interpolating
// linearly between ranks; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailQuantile is the highest of the usual reporting percentiles that
// has at least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.75} {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return int(math.Floor(float64(n)*(1-q) + 1e-9)) }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a point-in-time read of the Go runtime's cumulative
// allocation and CPU counters; subtracting two gives a region's cost.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		allocBytes:   ms[0].Value.Uint64(),
		allocObjects: ms[1].Value.Uint64(),
		gcCPU:        ms[2].Value.Float64(),
		totalCPU:     ms[3].Value.Float64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

// gcFrac is the share of the region's CPU time the garbage collector used.
func (a runtimeSample) gcFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of
// values with the "exclusive" method of Python's statistics.quantiles,
// so the spreads this benchmark reports match the ones computed from
// its output.
func quartiles(values []float64) (q1, med, q3 float64) {
	if len(values) == 0 {
		return 0, 0, 0
	}
	d := slices.Clone(values)
	slices.Sort(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	n := len(d)
	cut := func(i int) float64 {
		const parts = 4
		m := n + 1
		j := i * m / parts
		j = max(1, min(j, n-1))
		delta := i*m - j*parts
		return (d[j-1]*float64(parts-delta) + d[j]*float64(delta)) / parts
	}
	return cut(1), cut(2), cut(3)
}

// rank returns the nearest-rank q-quantile of durations.
func rank(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	d := slices.Clone(samples)
	slices.Sort(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// processCPU is the process's user and system CPU time so far.
func processCPU() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// Runtime metric names read around every measured iteration.
const (
	rmAllocs   = "/gc/heap/allocs:objects"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmSched    = "/sched/latencies:seconds"
	rmLiveHeap = "/gc/heap/live:bytes"
)

// runtimeSnap is one reading of the Go runtime's counters.
type runtimeSnap struct {
	allocs   uint64
	gcCPU    float64
	totalCPU float64
	gcCycles uint64
	sched    *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: rmAllocs}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmGCCycles}, {Name: rmSched}}
	metrics.Read(s)
	return runtimeSnap{
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
		sched:    s[4].Value.Float64Histogram(),
	}
}

// runtimeDelta is what the Go runtime did between two readings.
type runtimeDelta struct {
	allocs        uint64
	gcCPUShare    float64
	gcCPUSeconds  float64
	gcCycles      uint64
	schedP99Micro float64
}

func (a runtimeSnap) delta(b runtimeSnap) runtimeDelta {
	d := runtimeDelta{allocs: b.allocs - a.allocs, gcCycles: b.gcCycles - a.gcCycles,
		gcCPUSeconds: b.gcCPU - a.gcCPU}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUShare = d.gcCPUSeconds / tot
	}
	// p99 of the scheduling latencies observed between the readings.
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= want {
				upper := b.sched.Buckets[i+1]
				if math.IsInf(upper, 1) {
					upper = b.sched.Buckets[i]
				}
				d.schedP99Micro = upper * 1e6
				break
			}
		}
	}
	return d
}

// liveHeap reads the heap the last GC cycle found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: rmLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

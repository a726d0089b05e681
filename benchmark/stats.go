package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by the nearest-rank rule. It
// refuses (ok=false) when fewer than ten samples lie beyond the requested
// rank, so no tail figure ever rests on a handful of values.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && n-1-rank < 10 {
		return 0, false
	}
	return s[rank], true
}

// median is the 0.5 quantile (always defined for a non-empty sample).
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func durSeconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the CPU time the whole process has used, as the kernel
// accounts it (CLOCK_PROCESS_CPUTIME_ID). Time the host's hypervisor gave
// to other guests (steal) and time spent waiting for a free CPU are not in
// it, so a count of operations per CPU-second does not move with the load
// other tenants put on a shared host, as operations per wall-clock second
// do.
func cpuTime() time.Duration { return clockTime(2) }

// threadCPUTime is the CPU time the calling thread has used
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPUTime() time.Duration { return clockTime(3) }

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// forceGC runs two collections so the next window starts from a settled
// heap, and returns the live heap in MB.
func forceGC() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample is a snapshot of the Go runtime counters a window is diffed on.
type rtSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		allocBytes: ss[0].Value.Uint64(),
		allocs:     ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		totalCPU:   ss[3].Value.Float64(),
	}
}

// runtimeMetrics diffs two runtime snapshots into the per-op allocation
// figures and the share of CPU time the collector took.
func runtimeMetrics(a, b rtSample, ops int64, out map[string]float64) {
	if ops < 1 {
		ops = 1
	}
	out["runtime.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
	out["runtime.allocs_per_op"] = float64(b.allocs-a.allocs) / float64(ops)
	// The runtime refreshes its CPU classes at each collection; a window
	// no collection ended in reads as no GC time.
	out["runtime.gc_cpu_frac"] = 0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

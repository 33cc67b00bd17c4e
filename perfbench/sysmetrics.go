package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line")
}

// Runtime metrics the traced run reads around the work it measures.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// rtSample is one reading of the runtime metrics above.
type rtSample []metrics.Sample

func readRuntime() rtSample {
	s := rtSample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCPauses}, {Name: mSchedLat}}
	metrics.Read(s)
	return s
}

func (s rtSample) get(name string) metrics.Value {
	for _, x := range s {
		if x.Name == name {
			return x.Value
		}
	}
	panic("perfbench: runtime metric not sampled: " + name)
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes float64
	gcCPUFrac  float64
	gcPause    tailValue // ms
	sched      tailValue // ms
}

func runtimeDelta(a, b rtSample) rtDelta {
	var d rtDelta
	d.allocBytes = float64(b.get(mAllocBytes).Uint64() - a.get(mAllocBytes).Uint64())
	if tot := b.get(mTotalCPU).Float64() - a.get(mTotalCPU).Float64(); tot > 0 {
		d.gcCPUFrac = (b.get(mGCCPU).Float64() - a.get(mGCCPU).Float64()) / tot
	}
	d.gcPause = histTail(a.get(mGCPauses).Float64Histogram(), b.get(mGCPauses).Float64Histogram())
	d.sched = histTail(a.get(mSchedLat).Float64Histogram(), b.get(mSchedLat).Float64Histogram())
	return d
}

// histTail is the tail (see tail) of the samples histogram b gained since
// a, in milliseconds.
func histTail(a, b *metrics.Float64Histogram) tailValue {
	var n uint64
	for i := range b.Counts {
		n += b.Counts[i] - a.Counts[i]
	}
	p := ladderPct(int(n))
	return tailValue{pct: p, value: 1000 * histQuantile(a, b, p/100), n: int(n)}
}

// histQuantile is the q-quantile of the samples histogram b gained since
// a, interpolated linearly by rank inside the bucket holding it (an
// infinite edge yields the finite one).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum uint64
	for i := range b.Counts {
		n := b.Counts[i] - a.Counts[i]
		if n == 0 || float64(cum+n) < target {
			cum += n
			continue
		}
		lo, hi := b.Buckets[i], b.Buckets[i+1]
		switch {
		case math.IsInf(hi, 1):
			return lo
		case math.IsInf(lo, -1):
			return hi
		}
		return lo + (hi-lo)*(target-float64(cum))/float64(n)
	}
	return b.Buckets[len(b.Buckets)-1]
}

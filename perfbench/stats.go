package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ladder is the set of percentiles the benchmark reports a tail at, from
// the median up. tail picks the highest one that still has at least
// minBeyond samples above it.
var ladder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailValue is a tail percentile with its sample count. pct is 100 when
// there are too few samples for any percentile of the ladder, and value
// is then the maximum.
type tailValue struct {
	pct   float64
	value float64
	n     int
}

func (t tailValue) note() string {
	if t.pct == 100 {
		return "max"
	}
	return fmt.Sprintf("p%g", t.pct)
}

// ladderPct is the highest percentile of the ladder with at least
// minBeyond of n samples beyond it, or 100 (the maximum) when there is
// none.
func ladderPct(n int) float64 {
	for i := len(ladder) - 1; i >= 0; i-- {
		if n-rank(ladder[i], n) >= minBeyond {
			return ladder[i]
		}
	}
	return 100
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The small slack keeps p/100*n from rounding up past an exact integer.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// tail returns the highest percentile of xs with at least minBeyond
// samples beyond it, its value (nearest rank) and the sample count.
func tail(xs []float64) tailValue {
	p := ladderPct(len(xs))
	return tailValue{pct: p, value: percentile(xs, p), n: len(xs)}
}

// percentile is the nearest-rank p-th percentile of xs (0 for no
// samples). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is the 50th percentile with the two middle samples averaged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

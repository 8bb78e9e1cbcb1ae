package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tailLadder lists the percentiles a span may report as its tail, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer than ten make the tail one or two unlucky samples.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps binary rounding of p (99.9) from adding a rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond samples above its rank. With too few samples for any of them
// the tail is the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// median returns the median of xs (mean of the middle pair for even n).
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

// spans collects the host durations of the benchmark's own calls into
// the program, by span name. Pool workers record concurrently.
type spans struct {
	mu sync.Mutex
	ms map[string][]float64
}

func newSpans() *spans { return &spans{ms: map[string][]float64{}} }

func (s *spans) add(name string, d time.Duration) {
	s.mu.Lock()
	s.ms[name] = append(s.ms[name], float64(d.Nanoseconds())/1e6)
	s.mu.Unlock()
}

// timed wraps a call so that, when sp is non-nil, its duration is
// recorded under name.
func timed[T any](sp *spans, name string, call func() (T, error)) func() (T, error) {
	if sp == nil {
		return call
	}
	return func() (T, error) {
		start := time.Now()
		v, err := call()
		sp.add(name, time.Since(start))
		return v, err
	}
}

// spanNames are the spans every traced run reports, in report order.
var spanNames = []string{
	"harness.run_ms", "harness.discover_ms", "harness.trial_ms",
	"mc.cell_ms", "machine.new_ms", "mem.clone_ms",
}

// summary reports a span as its median, its tail percentile, which
// percentile that is, and the sample count. A span the workload never
// records reports zeros.
func (s *spans) summary(name string) (p50, tail, tailPct float64, n int) {
	xs := append([]float64(nil), s.ms[name]...)
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(xs)
	tailPct = tailPercentile(len(xs))
	return percentile(xs, 50), percentile(xs, tailPct), tailPct, len(xs)
}

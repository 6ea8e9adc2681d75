package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// samples is a latency series in nanoseconds. The zero value is ready to
// use; it is not safe for concurrent use (each generator owns one and the
// series are merged after the goroutines return).
type samples struct{ ns []int64 }

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

func (s *samples) len() int { return len(s.ns) }

// quantile returns the q-quantile in nanoseconds by the nearest-rank
// rule, or 0 for an empty series.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	sorted := slices.Clone(s.ns)
	slices.Sort(sorted)
	return float64(sorted[rank(q, len(sorted))])
}

// rank is the nearest-rank index of the q-quantile among n sorted values.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tail returns the samples of the fraction [lo, hi) of the series in
// arrival order — the device-churn first-tenth/last-tenth comparison.
func (s *samples) tail(lo, hi float64) *samples {
	n := len(s.ns)
	return &samples{ns: s.ns[int(lo*float64(n)):int(hi*float64(n))]}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// span accumulates the self time and call count of one layer boundary.
// Spans are kept in memory and folded into per-layer metrics when the run
// ends; a mutex suffices because every recorded call is microseconds long.
type span struct {
	mu sync.Mutex
	n  int64
	ns int64
}

func (s *span) add(n int64, d time.Duration) {
	s.mu.Lock()
	s.n += n
	s.ns += int64(d)
	s.mu.Unlock()
}

// perOp returns the mean nanoseconds per counted unit.
func (s *span) perOp() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n)
}

func (s *span) total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.ns)
}

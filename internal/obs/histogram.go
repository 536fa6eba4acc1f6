package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBuckets are the fixed upper bounds (seconds) used for every
// request- and stage-latency histogram: sub-millisecond queueing detail
// through multi-second outliers, 14 buckets plus the implicit +Inf. Fixed
// buckets make scrapes O(buckets) forever and aggregate correctly across
// models and replicas — unlike a sampled quantile window, which degrades
// silently once traffic outruns the window.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe with no
// locks on the hot path: per-bucket atomic counters plus an atomic
// float64-bits sum. Exposition.Histogram renders a snapshot as Prometheus
// histogram series (cumulative _bucket lines, _sum, _count).
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1, per-bucket (non-cumulative)
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// Nil or empty bounds take DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(b) {
		panic("obs: histogram bounds must be ascending")
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; bounds are few, this is ~4
	// compares.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: cumulative
// bucket counts aligned with Bounds (the +Inf bucket is Count itself).
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Snapshot copies the histogram's state. Buckets are read individually, so
// a snapshot taken during concurrent observes may be off by in-flight
// increments — never torn within one counter.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        math.Float64frombits(h.sum.Load()),
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = cum + h.counts[len(h.bounds)].Load()
	return s
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear interpolation
// within the containing bucket — the same estimate PromQL's
// histogram_quantile computes. Returns 0 for an empty histogram; values in
// the +Inf bucket clamp to the highest finite bound.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var lo float64
	var prev uint64
	for i, bound := range s.Bounds {
		c := s.Cumulative[i]
		if float64(c) >= rank {
			inBucket := c - prev
			if inBucket == 0 {
				return bound
			}
			return lo + (bound-lo)*(rank-float64(prev))/float64(inBucket)
		}
		lo, prev = bound, c
	}
	return s.Bounds[len(s.Bounds)-1]
}

package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram: a Recorder that never
// grows. Where Recorder keeps every sample (exact percentiles, unbounded
// memory, a lock per Add), Histogram keeps one atomic counter per bucket —
// Record is lock-free, allocation-free and constant-time, which is what the
// dispatch hot path needs to stay inside the alloc-guard budget while still
// producing p50/p95/p99 for the paper's latency-distribution tables.
//
// Bucket boundaries are fixed at construction and never change, so a
// snapshot is a plain copy of the counter array. Quantiles are estimated by
// linear interpolation inside the bucket containing the requested rank; the
// error is bounded by the bucket width (a factor of 2 with the default
// exponential bounds), which is accurate enough for regression gating and
// dashboards, if not for microbenchmark verdicts.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, in nanoseconds,
	// strictly increasing. Sample d lands in the first bucket with
	// d <= bounds[i]; anything larger lands in the implicit +Inf bucket.
	// Immutable after construction.
	bounds []int64

	// counts has len(bounds)+1 entries: one per bound plus the +Inf bucket.
	counts []atomic.Uint64

	count atomic.Uint64 // total samples
	sum   atomic.Int64  // total nanoseconds
	max   atomic.Int64  // largest sample, nanoseconds
}

// DefaultLatencyBounds covers 1µs to ~8.6s in factor-of-2 steps — wide
// enough for everything from a cached policy decision to an RSA keygen,
// tight enough (24 buckets) that a snapshot is one cache line of counters.
func DefaultLatencyBounds() []int64 {
	bounds := make([]int64, 24)
	b := int64(1000) // 1µs
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// NewHistogram creates a histogram over the given bucket bounds
// (nanoseconds, strictly increasing). Nil or empty bounds select
// DefaultLatencyBounds.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: own,
		counts: make([]atomic.Uint64, len(own)+1),
	}
}

// bucketOf returns the index of the bucket a sample of n nanoseconds lands
// in. Manual binary search: no closures, no allocations.
func (h *Histogram) bucketOf(n int64) int {
	lo, hi := 0, len(h.bounds) // hi is the +Inf bucket
	for lo < hi {
		mid := (lo + hi) / 2
		if n <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Record adds one latency sample. Safe for concurrent use; never allocates.
func (h *Histogram) Record(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	// The maximum moves before the bucket count, so a snapshot that counts
	// this sample also sees a maximum at least as large.
	for m := h.max.Load(); n > m && !h.max.CompareAndSwap(m, n); m = h.max.Load() {
	}
	h.counts[h.bucketOf(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// Count returns the total number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total recorded time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the arithmetic mean of the recorded samples.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(c))
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters.
// Counts[i] pairs with Bounds[i]; the final entry of Counts is the +Inf
// bucket. Max is the largest sample recorded.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []uint64
	Count  uint64
	Sum    time.Duration
	Max    time.Duration
}

// Snapshot copies the histogram's counters. Concurrent Records may land
// between individual counter loads; the snapshot is still a valid histogram
// (every sample counted at most once per counter), just not an atomic cut —
// the same contract Prometheus client libraries give.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable; shared, not copied
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load()) // after the counts: see Record
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) of a snapshot by
// locating the bucket holding the rank and interpolating linearly inside
// it. The +Inf bucket reports its lower bound (the largest finite bound).
// No estimate exceeds the largest sample recorded.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return min(s.interpolate(q), s.Max)
}

func (s HistogramSnapshot) interpolate(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				// +Inf bucket: the best honest answer is the largest
				// finite bound.
				return time.Duration(s.Bounds[len(s.Bounds)-1])
			}
			lower := int64(0)
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			v := float64(lower) + frac*float64(upper-lower)
			return time.Duration(math.Round(v))
		}
		cum = next
	}
	return 0
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the live counters.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// HistogramSummary digests a histogram into the percentiles the evaluation
// tables report.
type HistogramSummary struct {
	Count               uint64
	Mean, P50, P95, P99 time.Duration
}

// Summarize computes the digest from one snapshot.
func (h *Histogram) Summarize() HistogramSummary {
	s := h.Snapshot()
	out := HistogramSummary{Count: s.Count}
	if s.Count == 0 {
		return out
	}
	out.Mean = time.Duration(int64(s.Sum) / int64(s.Count))
	out.P50 = s.Quantile(0.50)
	out.P95 = s.Quantile(0.95)
	out.P99 = s.Quantile(0.99)
	return out
}

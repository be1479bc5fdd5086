// Package metrics provides the lightweight measurement primitives used by
// the benchmark harness: a log-bucketed latency histogram with quantile
// estimation.
//
// Everything here is allocation-free on the hot path and safe for
// concurrent use, so recording a sample costs a handful of atomic adds —
// cheap enough to leave enabled during the throughput runs that reproduce
// the paper's Figure 4.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histogram layout: one block per power-of-two range of nanoseconds,
// each split into subBuckets linear sub-buckets. This mirrors the classic
// HDR histogram trick and keeps relative quantile error below
// 1/subBuckets (~1.6%).
const (
	subBuckets = 64
	// Block 0 covers values [0, 64); blocks 1..57 cover top-bit exponents
	// 6..62, enough for the full non-negative int64 range (max top bit 62).
	numBuckets = 58 * subBuckets
)

// Histogram records int64 samples (by convention, nanoseconds) and reports
// approximate quantiles. The zero value is ready to use. All methods are
// safe for concurrent use.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // stored negated so that 0 means "unset"
}

// bucketIndex maps a sample to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of top bit, >= 6 here
	shift := exp - 6         // bring the 6 bits after the top bit down
	sub := int((u >> uint(shift)) & (subBuckets - 1))
	idx := (exp-5)*subBuckets + sub
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx (inverse of
// bucketIndex, used to reconstruct quantiles).
func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	block := idx/subBuckets + 5
	sub := idx % subBuckets
	base := uint64(1) << uint(block)
	step := uint64(1) << uint(block-6)
	return int64(base | uint64(sub)*step)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if cur != 0 && -v <= cur || h.min.CompareAndSwap(cur, -v) {
			break
		}
	}
}

// RecordSince is shorthand for Record(time.Since(start).Nanoseconds()).
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(time.Since(start).Nanoseconds())
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the arithmetic mean of samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Min returns the smallest recorded sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	v := h.min.Load()
	if v == 0 {
		return 0
	}
	return -v
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1).
// The result is the lower bound of the bucket containing the quantile,
// so relative error is bounded by the sub-bucket resolution.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max.Load()
}

// Snapshot returns a consistent-enough copy for reporting. Concurrent
// recording during Snapshot may skew counts by in-flight samples, which is
// acceptable for benchmark reporting.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.min.Store(0)
}

// Summary is a point-in-time digest of a Histogram, with durations in
// nanoseconds.
type Summary struct {
	Count         int64
	Mean          float64
	Min, P50, P95 int64
	P99, Max      int64
}

// String formats the summary with human-friendly durations.
func (s Summary) String() string {
	d := func(ns int64) time.Duration { return time.Duration(ns) }
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, time.Duration(int64(s.Mean)), d(s.P50), d(s.P95), d(s.P99), d(s.Max))
}

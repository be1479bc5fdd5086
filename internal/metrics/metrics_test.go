package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketIndex(v)) must be <= v, and the next bucket's low
	// must be > v: i.e. the mapping is a proper partition.
	for _, v := range []int64{0, 1, 2, 63, 64, 65, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		idx := bucketIndex(v)
		lo := bucketLow(idx)
		if lo > v {
			t.Fatalf("v=%d: bucketLow(%d)=%d > v", v, idx, lo)
		}
		if idx+1 < numBuckets {
			next := bucketLow(idx + 1)
			if next <= v && bucketIndex(next) == idx {
				t.Fatalf("v=%d: partition broken at idx %d", v, idx)
			}
		}
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		lo := bucketLow(i)
		if lo < prev {
			t.Fatalf("bucketLow not monotone at %d: %d < %d", i, lo, prev)
		}
		prev = lo
	}
}

func TestPropertyBucketContains(t *testing.T) {
	f := func(raw uint64) bool {
		v := int64(raw >> 1) // keep non-negative
		idx := bucketIndex(v)
		return bucketLow(idx) <= v && bucketIndex(bucketLow(idx)) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 20, 30, 40} {
		h.Record(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 25 {
		t.Fatalf("mean = %g", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 20 {
		t.Fatalf("p50 = %d, want 20", got)
	}
	if got := h.Quantile(1.0); got < 40 {
		t.Fatalf("p100 = %d, want >= 40", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative samples should clamp to zero")
	}
}

// TestQuantilesAgainstExact feeds random samples and checks that histogram
// quantiles land within the sub-bucket relative error of exact order
// statistics.
func TestQuantilesAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]int64, 50000)
	for i := range samples {
		v := int64(rng.ExpFloat64() * 1e6)
		samples[i] = v
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := h.Quantile(q)
		if exact == 0 {
			continue
		}
		rel := float64(got-exact) / float64(exact)
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("q=%g: histogram %d vs exact %d (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1_000_000)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(123)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestSnapshotAndString(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles out of order: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Record(i % 1_000_000)
			i += 997
		}
	})
}

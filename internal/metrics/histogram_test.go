package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},           // smallest bucket catches zero
		{-5, 0},          // negative durations clamp to zero
		{10, 0},          // exactly on a bound lands in that bucket (le semantics)
		{11, 1},          // one past the bound spills to the next
		{100, 1},         //
		{101, 2},         //
		{1000, 2},        //
		{1001, 3},        // past the last bound → +Inf bucket
		{time.Second, 3}, //
	}
	for _, tc := range cases {
		if got := h.bucketOf(int64(tc.d)); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.d, got, tc.bucket)
		}
	}
	for _, tc := range cases {
		h.Record(tc.d)
	}
	s := h.Snapshot()
	want := []uint64{3, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", s.Count, len(cases))
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	h := NewHistogram(nil)
	if got, want := len(h.bounds), 24; got != want {
		t.Fatalf("default bounds: %d, want %d", got, want)
	}
	if h.bounds[0] != 1000 {
		t.Errorf("first bound = %d ns, want 1µs", h.bounds[0])
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] != 2*h.bounds[i-1] {
			t.Errorf("bound %d = %d, want double of %d", i, h.bounds[i], h.bounds[i-1])
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-increasing bounds")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond)})
	// 100 samples at ~5µs: p50 and p99 must both land inside the (1µs,10µs]
	// bucket.
	for i := 0; i < 100; i++ {
		h.Record(5 * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if got <= time.Microsecond || got > 10*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want within (1µs, 10µs]", q, got)
		}
	}
	if got := h.Quantile(0); got < 0 {
		t.Errorf("Quantile(0) = %v", got)
	}

	// A bimodal population: 90 fast (~5µs), 10 slow (~50µs). p50 stays in
	// the fast bucket, p99 must report the slow one.
	h2 := NewHistogram([]int64{int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond)})
	for i := 0; i < 90; i++ {
		h2.Record(5 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h2.Record(50 * time.Microsecond)
	}
	if p50 := h2.Quantile(0.50); p50 > 10*time.Microsecond {
		t.Errorf("bimodal p50 = %v, want <= 10µs", p50)
	}
	if p99 := h2.Quantile(0.99); p99 <= 10*time.Microsecond {
		t.Errorf("bimodal p99 = %v, want > 10µs", p99)
	}
}

// Interpolating inside a bucket must not report a latency no sample had:
// with every sample just above a bucket's lower edge, p99 would otherwise
// land near the bucket's upper bound.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewHistogram([]int64{int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond)})
	const sample = time.Microsecond + time.Nanosecond
	for i := 0; i < 100; i++ {
		h.Record(sample)
	}
	if got := h.Snapshot().Max; got != sample {
		t.Fatalf("snapshot Max = %v, want %v", got, sample)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got > sample {
			t.Errorf("Quantile(%v) = %v, above the largest sample %v", q, got, sample)
		}
	}
}

func TestHistogramQuantileEmptyAndOverflow(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	// Everything in the +Inf bucket: quantiles report the largest finite
	// bound rather than inventing a value.
	h.Record(time.Hour)
	if got := h.Quantile(0.5); got != 20 {
		t.Errorf("overflow Quantile = %v, want largest bound 20ns", got)
	}
}

func TestHistogramSummarize(t *testing.T) {
	h := NewHistogram(nil)
	if s := h.Summarize(); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	for i := 0; i < 10; i++ {
		h.Record(4 * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 10 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 4*time.Microsecond {
		t.Errorf("Mean = %v, want 4µs", s.Mean)
	}
	if s.P50 == 0 || s.P95 == 0 || s.P99 == 0 {
		t.Errorf("zero percentile in %+v", s)
	}
	if h.Sum() != 40*time.Microsecond {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Mean() != 4*time.Microsecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

// TestHistogramConcurrentRecord locks the concurrency contract: Record from
// many goroutines races with Snapshot, and no sample is lost (run under
// -race in make race / make ci).
func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram(nil)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot().Quantile(0.95)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	s := h.Snapshot()
	if s.Count != uint64(workers*perWorker) {
		t.Fatalf("snapshot Count = %d, want %d", s.Count, workers*perWorker)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * 100)
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	h := NewHistogram(nil)
	got := testing.AllocsPerRun(1000, func() { h.Record(3 * time.Microsecond) })
	if got != 0 {
		t.Fatalf("Record allocates %.2f objects/op, want 0", got)
	}
}

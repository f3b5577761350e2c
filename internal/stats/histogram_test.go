package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros: %+v", h.Summarize())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("min/max = %d/%d, want 1234/1234", h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1234 {
			t.Errorf("Quantile(%v) = %d, want 1234", q, got)
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below bucketsPerExp are stored exactly.
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	// rank = ceil(0.5*32) = 16 -> the 16th smallest value, which is 15.
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("median = %d, want 15", got)
	}
	if got := h.Mean(); got != 15.5 {
		t.Errorf("mean = %v, want 15.5", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative not clamped: %+v", h.Summarize())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		v := rng.Int64N(1_000_000)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Mean() != both.Mean() || a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merge count/mean/min/max mismatch: %+v vs %+v", a.Summarize(), both.Summarize())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("merge quantile(%v) mismatch: %d vs %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	a.Merge(nil) // must not panic
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against exact quantiles of a heavy-tailed sample, relative error must
	// stay within the bucket resolution (1/32 ≈ 3.2%).
	rng := rand.New(rand.NewPCG(7, 9))
	var h Histogram
	samples := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := int64(rng.ExpFloat64() * 25_000) // mean 25us in ns
		if rng.Float64() < 0.01 {
			v *= 15
		}
		h.Record(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := ExactQuantile(samples, q)
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.04 {
			t.Errorf("q=%v: histogram %d vs exact %d (rel err %.3f)", q, got, exact, relErr)
		}
	}
}

func TestQuantileMonotonic(t *testing.T) {
	// Property: quantile is non-decreasing in q, and bounded by [min, max].
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			cur := h.Quantile(q)
			if cur < prev || cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Property: bucketLow(bucketIndex(v)) <= v and within one sub-bucket
	// width of v.
	f := func(raw uint64) bool {
		v := int64(raw % (1 << 40))
		idx := bucketIndex(v)
		low := bucketLow(idx)
		if low > v {
			return false
		}
		// Width of this bucket: values < 32 exact, else 2^(exp-5).
		if v < bucketsPerExp {
			return low == v
		}
		width := int64(1)
		for w := v; w >= bucketsPerExp*2; w >>= 1 {
			width <<= 1
		}
		return v-low < width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 30, 1 << 39} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %d", v)
		}
		prev = idx
	}
}

func TestExactQuantile(t *testing.T) {
	if ExactQuantile(nil, 0.5) != 0 {
		t.Fatal("empty sample must return 0")
	}
	s := []int64{5, 1, 3, 2, 4}
	if got := ExactQuantile(s, 0.5); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if got := ExactQuantile(s, 0); got != 1 {
		t.Errorf("q0 = %d, want 1", got)
	}
	if got := ExactQuantile(s, 1); got != 5 {
		t.Errorf("q1 = %d, want 5", got)
	}
	// Input must not be reordered.
	if s[0] != 5 || s[4] != 4 {
		t.Error("ExactQuantile mutated its input")
	}
}

func TestMeanStd(t *testing.T) {
	m, sd := MeanStd(nil)
	if m != 0 || sd != 0 {
		t.Fatal("empty MeanStd must be zeros")
	}
	m, sd = MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if math.Abs(sd-2) > 1e-9 {
		t.Errorf("std = %v, want 2", sd)
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Record(25_000)
	s := h.Summarize().String()
	if s == "" {
		t.Fatal("summary string empty")
	}
}

// TestPercentilesMatchQuantile pins the multi-percentile helper to the
// single-query path.
func TestPercentilesMatchQuantile(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewPCG(1, 9))
	for i := 0; i < 50_000; i++ {
		h.Record(int64(rng.ExpFloat64() * 25_000))
	}
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1}
	got := h.Percentiles(qs)
	for i, q := range qs {
		if want := h.Quantile(q); got[i] != want {
			t.Errorf("Percentiles[%v] = %d, want Quantile = %d", q, got[i], want)
		}
	}
}

// TestQuantileCacheInvalidation records around quantile queries and
// checks the cached cumulative scan never serves stale answers.
func TestQuantileCacheInvalidation(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	before := h.Quantile(0.99) // builds the cache
	for i := 0; i < 1000; i++ {
		h.Record(1_000_000) // shifts the tail far right
	}
	after := h.Quantile(0.99)
	if after <= before {
		t.Fatalf("stale quantile cache: p99 %d -> %d after recording 1000 large values", before, after)
	}

	h2 := NewHistogram()
	for i := 0; i < 10; i++ {
		h2.Record(50)
	}
	if got := h2.Quantile(0.5); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	h2.Merge(h)
	if got := h2.Quantile(0.99); got <= 50 {
		t.Fatalf("Merge did not invalidate the quantile cache: p99 = %d", got)
	}
}

// TestQuantileCacheCopySafe checks that copying a frozen histogram and
// mutating the original cannot corrupt the copy's cached view: rebuilds
// allocate a fresh slice instead of writing through the shared one.
func TestQuantileCacheCopySafe(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	_ = h.Quantile(0.99) // freeze
	snapshot := *h       // shares the cum backing array
	want := snapshot.Quantile(0.99)

	for i := 0; i < 10_000; i++ {
		h.Record(1 << 30)
	}
	_ = h.Quantile(0.99) // rebuild on the original
	if got := snapshot.Quantile(0.99); got != want {
		t.Fatalf("copied histogram's cached quantile changed after mutating the original: %d -> %d", want, got)
	}
}

// BenchmarkSummarizeFrozen measures the render-path pattern: extract a
// full Summary from a frozen histogram, repeatedly.
func BenchmarkSummarizeFrozen(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewPCG(1, 9))
	for i := 0; i < 100_000; i++ {
		h.Record(int64(rng.ExpFloat64() * 25_000))
	}
	h.Summarize() // freeze once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Summarize()
	}
}

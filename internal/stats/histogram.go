// Package stats provides latency histograms, percentile estimation, and
// time-series accumulation used by the NetClone simulator and benchmark
// harness.
//
// The central type is Histogram, a log-bucketed fixed-memory histogram in
// the spirit of HdrHistogram: values are recorded in O(1) with bounded
// relative error, and arbitrary percentiles are recovered afterwards. All
// values are int64 and are interpreted by the callers as nanoseconds.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// bucketsPerExp is the number of linear sub-buckets per power-of-two
// exponent range. 32 sub-buckets bound the relative quantile error at
// 1/32 ≈ 3.1%, which is far below the run-to-run variance of the
// experiments that use it.
const bucketsPerExp = 32

// maxExp covers values up to 2^40 ns ≈ 18 minutes, beyond any latency the
// simulator can produce in a single run.
const maxExp = 41

// Histogram is a log-bucketed histogram of non-negative int64 values.
// The zero value is ready to use. Not safe for concurrent use: even the
// read-side methods may build the frozen-quantile cache.
type Histogram struct {
	counts [maxExp * bucketsPerExp]int64
	n      int64
	sum    int64
	min    int64
	max    int64

	// cum caches the cumulative-count scan for quantile queries on a
	// frozen histogram: built once per freeze (O(buckets)), consulted by
	// binary search per quantile, and invalidated by any mutation. The
	// rebuild always allocates a fresh slice so that a copied Histogram
	// sharing the old backing array stays consistent.
	cum   []int64
	cumOK bool
}

// NewHistogram returns an empty histogram. Equivalent to &Histogram{}; it
// exists for symmetry with the rest of the package.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. Values < bucketsPerExp map
// linearly (exact); larger values map to (exponent, sub-bucket) pairs.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < bucketsPerExp {
		return int(v)
	}
	// exp is the position of the highest set bit; for v >= 32, exp >= 5.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Sub-bucket within the [2^exp, 2^(exp+1)) range.
	sub := int((v >> (uint(exp) - 5)) & (bucketsPerExp - 1))
	idx := (exp-4)*bucketsPerExp + sub
	if idx >= len([maxExp * bucketsPerExp]int64{}) {
		idx = maxExp*bucketsPerExp - 1
	}
	return idx
}

// bucketLow returns the inclusive lower bound of bucket i, the inverse of
// bucketIndex up to bucket granularity.
func bucketLow(i int) int64 {
	if i < bucketsPerExp {
		return int64(i)
	}
	exp := i/bucketsPerExp + 4
	sub := i % bucketsPerExp
	return (int64(1) << uint(exp)) + int64(sub)<<(uint(exp)-5)
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.n++
	h.sum += v
	h.cumOK = false
}

// Merge adds all observations recorded in other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	h.cumOK = false
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.n }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// freeze builds the cumulative-count cache. Repeated quantile queries
// on a frozen histogram pay the O(buckets) scan once, then O(log
// buckets) per query; any Record or Merge invalidates it.
func (h *Histogram) freeze() {
	if h.cumOK {
		return
	}
	cum := make([]int64, len(h.counts))
	var s int64
	for i, c := range h.counts {
		s += c
		cum[i] = s
	}
	h.cum = cum
	h.cumOK = true
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). It returns
// the lower bound of the bucket containing the target rank, clamped to the
// recorded [min, max] range so that Quantile(0) == Min and
// Quantile(1) == Max exactly.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	h.freeze()
	// First bucket whose cumulative count reaches the rank; cum's last
	// entry is n >= rank, so the search always lands in range.
	i := sort.Search(len(h.cum), func(i int) bool { return h.cum[i] >= rank })
	v := bucketLow(i)
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Percentiles returns the estimates for each quantile in qs (Quantile
// semantics) sharing one frozen cumulative scan — the call the harness
// render path uses to extract p50/p90/p99/p999 together.
func (h *Histogram) Percentiles(qs []float64) []int64 {
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// P50 returns the median estimate.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P99 returns the 99th percentile estimate, the paper's headline metric.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Summary is a compact set of distribution statistics.
type Summary struct {
	Count int64
	Min   int64
	Mean  float64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
	Max   int64
}

// Summarize extracts a Summary from the histogram. The four quantiles
// share a single frozen cumulative scan (Percentiles).
func (h *Histogram) Summarize() Summary {
	ps := h.Percentiles([]float64{0.50, 0.90, 0.99, 0.999})
	return Summary{
		Count: h.Count(),
		Min:   h.Min(),
		Mean:  h.Mean(),
		P50:   ps[0],
		P90:   ps[1],
		P99:   ps[2],
		P999:  ps[3],
		Max:   h.Max(),
	}
}

// String formats the summary with microsecond units, matching the paper's
// presentation of latency numbers.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1fus mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
		s.Count, float64(s.Min)/1e3, s.Mean/1e3, float64(s.P50)/1e3, float64(s.P99)/1e3, float64(s.Max)/1e3)
}

// ExactQuantile computes the q-quantile of a raw sample slice: the
// oracle the tests validate Histogram against. The input slice is not
// modified.
func ExactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	c := make([]int64, len(samples))
	copy(c, samples)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	rank := int(math.Ceil(q*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c) {
		rank = len(c) - 1
	}
	return c[rank]
}

// MeanStd returns the mean and (population) standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

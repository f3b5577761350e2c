package main

import (
	"math"
	"sort"
)

// The reducers every reported number goes through. A workload is cut
// into equal slices; a timing metric is the median over the slices and
// its spread is the distance between their quartiles as a share of that
// median, which is how the driver judges a metric's steadiness across
// runs, so the benchmark judges itself by the same arithmetic.

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method)
// computes them. Fewer than two values have no spread: both quartiles
// are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of xs as a share of its median;
// 0 when there is no median to divide by.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// tailLadder is the percentiles a latency sample is reported at.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// supportedTail returns the highest percentile of tailLadder that has
// at least ten samples beyond it in a sample of n: a p99 of 500 samples
// is the fifth-worst value and says little, a p99 of 100,000 is the
// thousandth-worst. With fewer than twenty samples only the median is
// supported.
func supportedTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// 1-p is not exact in binary (100*(1-0.9) is a hair under 10).
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantileSorted returns the nearest-rank q-quantile of an ascending
// sample, 0 for an empty one.
func quantileSorted(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// verdict is the outcome of comparing one (metric, workload) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// worseBy returns by what share of a the candidate b is worse than a,
// given the metric's direction; negative means b is better.
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the benchmark's regression rule: a pair whose
// run-to-run spread (the wider of the two sides) exceeds the bound
// cannot be told apart at that bound and is unresolved, not unchanged;
// otherwise b is worse when it trails a by more than the bound.
func judge(a, b, spreadA, spreadB, bound float64, higherIsBetter bool) verdict {
	if math.Max(spreadA, spreadB) > bound {
		return verdictUnresolved
	}
	if worseBy(a, b, higherIsBetter) > bound {
		return verdictWorse
	}
	return verdictOK
}

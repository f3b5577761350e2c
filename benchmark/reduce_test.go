package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianOfSlices(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 10, 1000}, 10}, // one slow slice does not move it
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// returns, because that is what the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1.0) {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread(nil) = %v, want 0", got)
	}
}

func TestSupportedTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.50}, {19, 0.50}, {20, 0.50}, {99, 0.50},
		{100, 0.90}, {999, 0.90},
		{1000, 0.99}, {9999, 0.99},
		{10000, 0.999}, {99999, 0.999},
		{100000, 0.9999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileSortedNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := quantileSorted(s, tc.q); got != tc.want {
			t.Errorf("quantileSorted(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %d, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name             string
		a, b             float64
		spreadA, spreadB float64
		bound            float64
		higher           bool
		want             verdict
	}{
		{"lower is better, within bound", 100, 104, 0.01, 0.01, 0.05, false, verdictOK},
		{"lower is better, past bound", 100, 106, 0.01, 0.01, 0.05, false, verdictWorse},
		{"lower is better, improved", 100, 50, 0.01, 0.01, 0.05, false, verdictOK},
		{"higher is better, within bound", 100, 96, 0.01, 0.01, 0.05, true, verdictOK},
		{"higher is better, past bound", 100, 94, 0.01, 0.01, 0.05, true, verdictWorse},
		{"higher is better, improved", 100, 200, 0.01, 0.01, 0.05, true, verdictOK},
		{"spread of A wider than bound", 100, 100, 0.06, 0.01, 0.05, false, verdictUnresolved},
		{"spread of B wider than bound hides a regression", 100, 150, 0.01, 0.06, 0.05, false, verdictUnresolved},
		{"exactly at the bound is not worse", 100, 105, 0, 0, 0.05, false, verdictOK},
	} {
		if got := judge(tc.a, tc.b, tc.spreadA, tc.spreadB, tc.bound, tc.higher); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := worseBy(0, 5, false); got != 0 {
		t.Errorf("worseBy with a zero base = %v, want 0", got)
	}
}

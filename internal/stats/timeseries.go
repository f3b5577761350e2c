package stats

// TimeSeries accumulates per-bin counters over virtual time. It is used by
// the switch-failure experiment (Fig 16), which plots completed requests
// per second over a 25-second run.
type TimeSeries struct {
	binWidth int64 // nanoseconds per bin
	bins     []int64
}

// NewTimeSeries returns a series with the given bin width in nanoseconds.
// binWidth must be positive.
func NewTimeSeries(binWidth int64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: TimeSeries bin width must be positive")
	}
	return &TimeSeries{binWidth: binWidth}
}

// Add increments the bin containing time t (nanoseconds) by n. Negative
// times are ignored.
func (ts *TimeSeries) Add(t int64, n int64) {
	if t < 0 {
		return
	}
	bin := int(t / ts.binWidth)
	for bin >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[bin] += n
}

// BinWidth returns the configured bin width in nanoseconds.
func (ts *TimeSeries) BinWidth() int64 { return ts.binWidth }

// Rate returns the per-second rate for each bin, i.e. count scaled by
// (1s / binWidth).
func (ts *TimeSeries) Rate() []float64 {
	scale := 1e9 / float64(ts.binWidth)
	out := make([]float64, len(ts.bins))
	for i, c := range ts.bins {
		out[i] = float64(c) * scale
	}
	return out
}

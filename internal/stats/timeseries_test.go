package stats

import "testing"

func TestTimeSeriesBasic(t *testing.T) {
	ts := NewTimeSeries(1e9) // 1-second bins: rate == count
	ts.Add(0, 1)
	ts.Add(5e8, 2)
	ts.Add(15e8, 3)
	ts.Add(-1, 99) // ignored
	rate := ts.Rate()
	if len(rate) != 2 {
		t.Fatalf("bins = %d, want 2", len(rate))
	}
	if rate[0] != 3 || rate[1] != 3 {
		t.Fatalf("rates = %v, want [3 3] per second", rate)
	}
	if ts.BinWidth() != 1e9 {
		t.Fatalf("BinWidth = %d", ts.BinWidth())
	}
}

func TestTimeSeriesSparse(t *testing.T) {
	ts := NewTimeSeries(100)
	ts.Add(950, 1) // bin 9; bins 0..8 must exist and be zero
	rate := ts.Rate()
	if len(rate) != 10 {
		t.Fatalf("bins = %d, want 10", len(rate))
	}
	for i := 0; i < 9; i++ {
		if rate[i] != 0 {
			t.Fatalf("bin %d = %v, want 0", i, rate[i])
		}
	}
	if rate[9] != 1e7 { // one count per 100 ns
		t.Fatalf("bin 9 = %v/s, want 1e7", rate[9])
	}
}

func TestTimeSeriesBinsCopy(t *testing.T) {
	ts := NewTimeSeries(1e9)
	ts.Add(5, 1)
	r := ts.Rate()
	r[0] = 42
	if ts.Rate()[0] != 1 {
		t.Fatal("Rate must return a fresh slice, not the bins")
	}
}

func TestTimeSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bin width")
		}
	}()
	NewTimeSeries(0)
}

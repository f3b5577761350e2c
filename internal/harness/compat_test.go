package harness

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"netclone/internal/scenario"
)

// renderBytes canonicalizes a report for byte-level comparison: its
// text rendering, notes included, followed by its CSV.
func renderBytes(t *testing.T, r Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RenderText(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := RenderCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepRun is one experiment's two runs in the registry sweep.
type sweepRun struct {
	a, b                      Report
	errA, errB                error
	desc                      string // how run B differs from run A
	observed, traced, dropped int    // Observe calls in run B
}

var (
	sweepOnce sync.Once
	sweepRuns map[string]*sweepRun
)

// registrySweep runs every experiment twice at the golden options, once
// per test binary; every registry test reads its results.
//
//   - A: sequential (Parallelism 1), untraced, on the default (nil)
//     backend. The concatenated CSV of A must equal testdata/golden.csv.
//   - B: Parallelism 8 with the flight recorder on and an Observe
//     callback; fig7a runs on an explicit scenario.Sim(). B's text and
//     CSV, notes included, must equal A's.
func registrySweep(t *testing.T) map[string]*sweepRun {
	t.Helper()
	if testing.Short() {
		t.Skip("registry sweep skipped in -short mode")
	}
	sweepOnce.Do(func() {
		seq := Options{
			DurationNS:  3e6,
			WarmupNS:    1e6,
			LoadFracs:   []float64{0.4},
			Repeats:     2,
			Parallelism: 1,
		}
		sweepRuns = make(map[string]*sweepRun)
		for _, e := range All() {
			r := &sweepRun{desc: "traced run at Parallelism 8"}
			sweepRuns[e.ID] = r
			r.a, r.errA = e.Run(seq)

			var mu sync.Mutex
			par := seq
			par.Parallelism = 8
			par.TraceRate = 16
			par.TraceCap = 1 << 12
			par.Observe = func(label string, res scenario.Result) {
				mu.Lock()
				defer mu.Unlock()
				r.observed++
				if res.Trace != nil && len(res.Trace.Events) > 0 {
					r.traced++
					if res.Trace.Dropped > 0 {
						r.dropped++
					}
				}
			}
			if e.ID == "fig7a" {
				par.Backend = scenario.Sim()
				r.desc += " on explicit Sim()"
			}
			r.b, r.errB = e.Run(par)
		}
	})
	return sweepRuns
}

// forEachExperiment runs check on every experiment's sweep results, one
// subtest per experiment.
func forEachExperiment(t *testing.T, check func(t *testing.T, id string, r *sweepRun)) {
	t.Helper()
	runs := registrySweep(t)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) { check(t, e.ID, runs[e.ID]) })
	}
}

// checkRan fails unless both runs succeeded and A has output.
func checkRan(t *testing.T, id string, r *sweepRun) {
	t.Helper()
	if r.errA != nil {
		t.Fatalf("sequential run: %v", r.errA)
	}
	if r.errB != nil {
		t.Fatalf("%s: %v", r.desc, r.errB)
	}
	if len(r.a.Series) == 0 && len(r.a.Table) == 0 {
		t.Fatal("produced no output")
	}
}

// checkSame fails unless B renders byte-identical to A.
func checkSame(t *testing.T, id string, r *sweepRun) {
	t.Helper()
	checkRan(t, id, r)
	if !bytes.Equal(renderBytes(t, r.a), renderBytes(t, r.b)) {
		t.Errorf("report differs between the sequential untraced run on the default backend and the %s", r.desc)
	}
}

// checkObserved fails if table1/table2, which run no scenario, call
// Observe, or if any other experiment observes no traced point.
func checkObserved(t *testing.T, id string, r *sweepRun) {
	t.Helper()
	if id == "table1" || id == "table2" {
		if r.observed != 0 {
			t.Errorf("static experiment called Observe %d time(s)", r.observed)
		}
	} else if r.traced == 0 {
		t.Errorf("no observed point carried flight-recorder data (%d observed)", r.observed)
	}
}

// checkHeadDropped fails unless some point head-dropped trace records,
// which shows tracing invisible across a ring overwrite.
func checkHeadDropped(t *testing.T) {
	t.Helper()
	for _, r := range registrySweep(t) {
		if r.dropped > 0 {
			return
		}
	}
	t.Error("no observed point head-dropped trace records, so invisibility across a ring overwrite is unpinned")
}

// TestGoldenReportsMatchPreRedesign pins the whole registry sweep: A's
// CSV equals testdata/golden.csv byte for byte, which is
//
//	netclone-bench -run all -duration 3ms -warmup 1ms -loads 0.4 -repeats 2 -format csv
//
// and, per experiment, every check of TestParallelDeterminism and
// TestTracedDeterminism. So one sweep pins the golden numbers,
// determinism at any parallelism, the invisibility of tracing, and the
// default backend being the simulator.
//
// To regenerate golden after an intentional change, documented in
// CHANGES.md:
//
//	REGEN_GOLDEN=1 go test ./internal/harness -run TestGoldenReportsMatchPreRedesign
func TestGoldenReportsMatchPreRedesign(t *testing.T) {
	forEachExperiment(t, func(t *testing.T, id string, r *sweepRun) {
		checkSame(t, id, r)
		checkObserved(t, id, r)
	})
	checkHeadDropped(t)
	var got bytes.Buffer
	for _, e := range All() {
		if err := RenderCSV(&got, registrySweep(t)[e.ID].a); err != nil {
			t.Fatal(err)
		}
	}
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile("testdata/golden.csv", got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated testdata/golden.csv; document the reason in CHANGES.md")
		return
	}
	want, err := os.ReadFile("testdata/golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendered reports diverge from the golden output (%d vs %d bytes); if the change is intentional, regenerate with REGEN_GOLDEN=1 and document why in CHANGES.md", got.Len(), len(want))
	}
}

// TestAllExperimentsRunQuick is the registry smoke test: every
// experiment runs in both sweeps and produces a series or a table.
func TestAllExperimentsRunQuick(t *testing.T) {
	forEachExperiment(t, checkRan)
}

// TestParallelDeterminism asserts that every experiment's report is
// byte-identical between Parallelism 1 and 8 at the same seed.
func TestParallelDeterminism(t *testing.T) {
	forEachExperiment(t, checkSame)
}

// TestTracedDeterminism asserts that every experiment's report is
// byte-identical with tracing on and off, across ring head-drops too,
// while the trace payload flows out through Observe instead.
func TestTracedDeterminism(t *testing.T) {
	forEachExperiment(t, func(t *testing.T, id string, r *sweepRun) {
		checkSame(t, id, r)
		checkObserved(t, id, r)
	})
	checkHeadDropped(t)
}

package harness

import (
	"bytes"
	"strings"
	"testing"
)

// expectedIDs is the experiment inventory promised by DESIGN.md §3.
var expectedIDs = []string{
	"table1", "table2",
	"fig7a", "fig7b", "fig7c", "fig7d",
	"fig8a", "fig8b",
	"fig9",
	"fig10a", "fig10b", "fig10c", "fig10d",
	"fig11a", "fig11b", "fig12a", "fig12b",
	"fig13a", "fig13b",
	"fig14a", "fig14b",
	"fig15", "fig16",
	"abl-clonedrop", "abl-grouporder", "abl-filtertables", "abl-coordcost", "abl-multicoord",
	"ext-multirack", "ext-loss",
	"chaos-straggler", "chaos-lossburst", "chaos-rollingcrash",
	"scale-racks", "scale-xrack", "scale-skew",
	"cong-incast", "cong-spine", "cong-crossover", "cong-timeline",
	"scale-racks-xl", // post-cong addition (golden append order)
	"chaos-2rack",    // registered last (emu-parity addition, golden append order)
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range expectedIDs {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if got, want := len(All()), len(expectedIDs); got != want {
		t.Errorf("registry has %d experiments, want %d: %v", got, want, IDs())
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup of unknown experiment succeeded")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DurationNS <= 0 || o.Seed == 0 || len(o.LoadFracs) == 0 || o.Repeats <= 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	// A zero-value Options gets the documented Default() warmup.
	if want := Default().WarmupNS; o.WarmupNS != want {
		t.Fatalf("zero Options warmup = %d, want default %d", o.WarmupNS, want)
	}
	// Partial options keep their values.
	o2 := Options{DurationNS: 5e6, Seed: 9, WarmupNS: 3e6}.withDefaults()
	if o2.DurationNS != 5e6 || o2.Seed != 9 || o2.WarmupNS != 3e6 {
		t.Fatalf("explicit options overwritten: %+v", o2)
	}
	// The NoWarmup sentinel disables warmup explicitly.
	if o3 := (Options{WarmupNS: NoWarmup}).withDefaults(); o3.WarmupNS != 0 {
		t.Fatalf("NoWarmup normalized to %d, want 0", o3.WarmupNS)
	}
}

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() Options {
	return Options{
		DurationNS: 8e6,
		WarmupNS:   2e6,
		Seed:       1,
		LoadFracs:  []float64{0.2, 0.6},
		Repeats:    2,
	}
}

func TestTable1(t *testing.T) {
	e, _ := Lookup("table1")
	r, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table) != 6 {
		t.Fatalf("table1 rows = %d, want 6", len(r.Table))
	}
	// NetClone must win every property (Table 1's point).
	for _, row := range r.Table[2:] {
		if row[3] != "yes" && row[1] != "Client" {
			t.Errorf("row %v: NetClone column should be yes/Switch", row)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	e, _ := Lookup("table2")
	r, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderText(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"7", "4.77%", "5.24 BRPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7aShape(t *testing.T) {
	e, _ := Lookup("fig7a")
	r, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("fig7a series = %d, want 3", len(r.Series))
	}
	byLabel := map[string]Series{}
	for _, s := range r.Series {
		byLabel[s.Label] = s
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points, want 2", s.Label, len(s.Points))
		}
	}
	// At the low-load point NetClone must beat Baseline on p99.
	if nc, bl := byLabel["NetClone"], byLabel["Baseline"]; nc.Points[0].Y >= bl.Points[0].Y {
		t.Errorf("fig7a low load: NetClone p99 %.1f >= Baseline %.1f", nc.Points[0].Y, bl.Points[0].Y)
	}
}

func TestFig8LaedgeLowestThroughput(t *testing.T) {
	e, _ := Lookup("fig8a")
	opts := tinyOpts()
	opts.LoadFracs = []float64{0.9}
	r, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var la, nc float64
	for _, s := range r.Series {
		switch s.Label {
		case "LAEDGE":
			la = s.Points[0].X
		case "NetClone":
			nc = s.Points[0].X
		}
	}
	if la >= nc {
		t.Errorf("fig8a at 90%%: LAEDGE throughput %.2f >= NetClone %.2f", la, nc)
	}
}

func TestFig9SixSeries(t *testing.T) {
	e, _ := Lookup("fig9")
	opts := tinyOpts()
	opts.LoadFracs = []float64{0.5}
	r, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 6 {
		t.Fatalf("fig9 series = %d, want 6 (Baseline/NetClone x 2/4/6 servers)", len(r.Series))
	}
	labels := map[string]bool{}
	for _, s := range r.Series {
		labels[s.Label] = true
	}
	for _, want := range []string{"Baseline(2)", "NetClone(2)", "Baseline(4)", "NetClone(4)", "Baseline(6)", "NetClone(6)"} {
		if !labels[want] {
			t.Errorf("fig9 missing series %q", want)
		}
	}
}

func TestFig13aMonotoneDecreasing(t *testing.T) {
	e, _ := Lookup("fig13a")
	opts := tinyOpts()
	r, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series[0].Points
	if len(pts) != 10 {
		t.Fatalf("fig13a points = %d, want 10", len(pts))
	}
	if pts[0].Y < 90 {
		t.Errorf("empty-queue portion at 10%% load = %.1f%%, want > 90%%", pts[0].Y)
	}
	if pts[9].Y >= pts[0].Y {
		t.Errorf("portion of zeros did not decrease: %.1f%% -> %.1f%%", pts[0].Y, pts[9].Y)
	}
}

func TestFig13bHasErrorBars(t *testing.T) {
	e, _ := Lookup("fig13b")
	r, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("fig13b series = %d, want 2", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != 1 || s.Points[0].Y <= 0 {
			t.Errorf("series %s malformed: %+v", s.Label, s.Points)
		}
	}
}

func TestFig16Timeline(t *testing.T) {
	e, _ := Lookup("fig16")
	opts := tinyOpts()
	r, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series[0].Points
	if len(pts) < 10 {
		t.Fatalf("fig16 has %d bins, want >= 10", len(pts))
	}
	// Bins 5-6 cover the failure window; bin 2 is pre-failure.
	if pts[5].Y > 0.1*pts[2].Y {
		t.Errorf("throughput during failure %.3f not near zero (before %.3f)", pts[5].Y, pts[2].Y)
	}
	if pts[9].Y < 0.7*pts[2].Y {
		t.Errorf("throughput after recovery %.3f did not recover (before %.3f)", pts[9].Y, pts[2].Y)
	}
}

func TestAblationFilterTables(t *testing.T) {
	e, _ := Lookup("abl-filtertables")
	r, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table) != 4 {
		t.Fatalf("abl-filtertables rows = %d, want 4", len(r.Table))
	}
}

func TestRenderTextAndCSV(t *testing.T) {
	r := Report{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s1", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4, Err: 0.5}}}},
		Notes:  []string{"a note"},
	}
	var txt bytes.Buffer
	if err := RenderText(&txt, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "s1", "+/- 0.5", "a note"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q", want)
		}
	}
	var csv bytes.Buffer
	if err := RenderCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "s1,1,2,0") {
		t.Errorf("csv output malformed:\n%s", csv.String())
	}

	tr := Report{ID: "t", Table: [][]string{{"a", "b,c"}, {"1", `say "hi"`}}}
	csv.Reset()
	if err := RenderCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"b,c"`) || !strings.Contains(csv.String(), `"say ""hi"""`) {
		t.Errorf("csv escaping wrong:\n%s", csv.String())
	}
}

// TestCongCrossoverSuppressionWins pins the congestion family's
// headline: with the client down-ports driven into incast overload,
// near-source clone suppression beats fixed cloning — the clones fixed
// NetClone keeps sending amplify the very queueing it suffers from.
func TestCongCrossoverSuppressionWins(t *testing.T) {
	opts := Options{
		DurationNS: 20e6, WarmupNS: 5e6, Seed: 3,
		LoadFracs: []float64{0.85}, Repeats: 1,
	}
	rep, err := registry["cong-crossover"].Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	p99 := map[string]float64{}
	for _, s := range rep.Series {
		if len(s.Points) != 1 {
			t.Fatalf("series %q has %d points, want 1", s.Label, len(s.Points))
		}
		p99[s.Label] = s.Points[0].Y
	}
	fixed, ok := p99["NetClone"]
	if !ok {
		t.Fatalf("no NetClone series: %v", rep.Series)
	}
	supp, ok := p99["NetClone+Suppress"]
	if !ok {
		t.Fatalf("no NetClone+Suppress series: %v", rep.Series)
	}
	if supp >= fixed {
		t.Errorf("under incast overload suppression p99 = %.1f us, fixed cloning p99 = %.1f us; want suppression to win", supp, fixed)
	}
}

// TestCongTimelineShape checks the timeline report's structural
// contract: the typed kind plus the throughput series and the two aux
// series netclone-bench folds into CSV columns.
func TestCongTimelineShape(t *testing.T) {
	rep, err := registry["cong-timeline"].Run(Options{
		DurationNS: 2e6, WarmupNS: NoWarmup, Seed: 1,
		LoadFracs: []float64{0.3}, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != ReportTimeline {
		t.Errorf("Kind = %d, want ReportTimeline", rep.Kind)
	}
	labels := make([]string, len(rep.Series))
	for i, s := range rep.Series {
		labels[i] = s.Label
		if len(s.Points) == 0 {
			t.Errorf("series %q is empty", s.Label)
		}
	}
	if len(labels) != 3 || labels[1] != TimelineDepthLabel || labels[2] != TimelineDropsLabel {
		t.Fatalf("series labels = %v, want [NetClone, %s, %s]", labels, TimelineDepthLabel, TimelineDropsLabel)
	}
	var peak float64
	for _, p := range rep.Series[1].Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if peak == 0 {
		t.Error("queue-depth series never left zero on an oversubscribed edge")
	}
}

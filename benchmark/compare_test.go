package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// syntheticResult is a run whose every end-to-end metric is base with
// three steady slices.
func syntheticResult(workload string, base float64) *result {
	r := &result{Workload: workload, Seed: 1, Correct: true, Attempted: 1000, ResultSHA256: "aa", Metrics: map[string]value{}}
	for _, d := range endToEnd {
		r.setSlices(d.Name, []float64{base * 0.99, base, base * 1.01})
	}
	return r
}

func syntheticSet(base float64) *resultSet {
	set := &resultSet{Schema: 1, Seed: 1, Workloads: map[string]*setEntries{}}
	for _, w := range workloads {
		set.Workloads[w.Name] = &setEntries{EndToEnd: syntheticResult(w.Name, base)}
	}
	return set
}

func TestCompareBoundChecking(t *testing.T) {
	a := syntheticResult("sim-hotpath", 100)
	b := syntheticResult("sim-hotpath", 100)
	// requests_per_sec (higher is better, bound 20%) drops by 22%: worse.
	b.setSlices("requests_per_sec", []float64{77, 78, 79})
	// cpu_us_per_request (lower is better) drops: an improvement is ok.
	b.setSlices("cpu_us_per_request", []float64{49, 50, 51})
	// rtt_p99_us slices spread far wider than its bound: unresolved.
	b.setSlices("rtt_p99_us", []float64{60, 100, 160})
	// rtt_p50_us worsens by 18%, inside its 20% bound: ok.
	b.setSlices("rtt_p50_us", []float64{117, 118, 119})

	want := map[string]verdict{
		"setup_s":            verdictOK,
		"requests_per_sec":   verdictWorse,
		"cpu_us_per_request": verdictOK,
		"rtt_p99_us":         verdictUnresolved,
		"rtt_p50_us":         verdictOK,
	}
	rows := compareResults(a, b)
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	for _, row := range rows {
		if row.Verdict != want[row.Metric] {
			t.Errorf("%s: %s (worse by %.3f, bound %.2f, spreads %.3f/%.3f), want %s",
				row.Metric, row.Verdict, row.WorseBy, row.Bound, row.SpreadA, row.SpreadB, want[row.Metric])
		}
	}
}

func TestReportComparisonStatus(t *testing.T) {
	var out bytes.Buffer
	if status := reportComparison(&out, syntheticSet(100), syntheticSet(101)); status != 0 {
		t.Errorf("a 1%% move reported status %d:\n%s", status, out.String())
	}
	if n := strings.Count(out.String(), " ok\n"); n != len(workloads)*len(endToEnd) {
		t.Errorf("%d ok rows, want one per (metric, workload) pair = %d", n, len(workloads)*len(endToEnd))
	}

	// Equal seeds with different digests: the program's output changed.
	b := syntheticSet(100)
	b.Workloads["suite-quick"].EndToEnd.ResultSHA256 = "bb"
	out.Reset()
	if status := reportComparison(&out, syntheticSet(100), b); status == 0 || !strings.Contains(out.String(), "result_sha256 differs") {
		t.Errorf("digest mismatch not reported (status %d):\n%s", status, out.String())
	}

	// Too many failed operations on one side.
	b = syntheticSet(100)
	b.Workloads["emu-loopback"].EndToEnd.Failed = 3 // of 1000 attempted: 0.003 > 0.002
	out.Reset()
	if status := reportComparison(&out, syntheticSet(100), b); status == 0 || !strings.Contains(out.String(), "failed 3 of 1000") {
		t.Errorf("failed fraction not reported (status %d):\n%s", status, out.String())
	}

	// A workload missing from one set.
	b = syntheticSet(100)
	delete(b.Workloads, "sim-hotpath")
	out.Reset()
	if status := reportComparison(&out, syntheticSet(100), b); status == 0 {
		t.Errorf("missing workload reported status 0")
	}
}

func TestFinishDecidesCorrectness(t *testing.T) {
	r := &result{Metrics: map[string]value{"setup_s": {Value: 1}, "not_a_metric": {Value: 2}}, Attempted: 1000, Failed: 2}
	r.finish()
	if !r.Correct {
		t.Errorf("2 failed of 1000 is within the budget, got correct=false")
	}
	if _, ok := r.Metrics["not_a_metric"]; ok || len(r.Metrics) != len(endToEnd) {
		t.Errorf("finish must report exactly the end-to-end metrics, got %v", r.Metrics)
	}
	if r.Metrics["setup_s"].Unit != "s" {
		t.Errorf("unit not filled in: %+v", r.Metrics["setup_s"])
	}
	r = &result{Metrics: map[string]value{}, Attempted: 1000, Failed: 3}
	r.finish()
	if r.Correct {
		t.Errorf("3 failed of 1000 is over the budget, got correct=true")
	}
	r = &result{Metrics: map[string]value{}, Attempted: 100000}
	r.verify("some_check", false, "it did not hold")
	r.finish()
	if r.Correct {
		t.Errorf("a failed output check must make the run wrong whatever the fraction")
	}
	// The driver's line has exactly four keys.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.line()), &line); err != nil || len(line) != 4 {
		t.Errorf("line = %s (%v), want the keys correct, attempted, failed, metrics", r.line(), err)
	}
}

// BENCHMARK.json is the driver's copy of the tables in metrics.go and
// main.go; the two must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", file.RunSeconds, runSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, the benchmark has %q: %q", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	better := map[bool]string{true: "higher", false: "lower"}
	check := func(kind string, got []metricJSON, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics, the benchmark has %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better[d.Higher] {
				t.Errorf("%s %d = %+v, the benchmark has %s [%s] better %s", kind, i, g, d.Name, d.Unit, better[d.Higher])
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the benchmark has %v (must be in (0, 0.25])", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// -compare A B: the regression rule applied to two result sets. For
// every pairing of end-to-end metric and workload it prints both
// medians, by how much B is worse than A, the bound, and a verdict. A
// pair whose slices spread wider than the bound is unresolved, not
// unchanged. It also holds the two sets to the output checks that span
// runs: equal seeds must give equal result digests, and neither side
// may fail more than two operations in a thousand.

// loadSet reads a results.json, given the file or its directory.
func loadSet(path string) (*resultSet, error) {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		path = filepath.Join(path, "results.json")
	}
	var set resultSet
	if err := readJSON(path, &set); err != nil {
		return nil, err
	}
	return &set, nil
}

// comparison is one row of the report.
type comparison struct {
	Workload, Metric string
	A, B             float64
	SpreadA, SpreadB float64
	WorseBy, Bound   float64
	Verdict          verdict
}

// compareResults judges every end-to-end metric of one workload.
func compareResults(a, b *result) []comparison {
	var rows []comparison
	for _, d := range endToEnd {
		va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
		row := comparison{
			Workload: a.Workload, Metric: d.Name,
			A: va.Value, B: vb.Value,
			SpreadA: spread(va.Slices), SpreadB: spread(vb.Slices),
			WorseBy: worseBy(va.Value, vb.Value, d.Higher), Bound: d.Bound,
		}
		row.Verdict = judge(row.A, row.B, row.SpreadA, row.SpreadB, d.Bound, d.Higher)
		rows = append(rows, row)
	}
	return rows
}

// compareSets prints the report and returns the exit status: 0 when
// every pair is ok and every cross-run check holds.
func compareSets(w io.Writer, pathA, pathB string) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		set, err := loadSet(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		sets[i] = set
	}
	return reportComparison(w, sets[0], sets[1])
}

func reportComparison(w io.Writer, a, b *resultSet) int {
	status := 0
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %8s %8s %7s %7s  %s\n",
		"workload", "metric", "A", "B", "worse", "bound", "iqrA", "iqrB", "verdict")
	for _, spec := range workloads {
		ea, eb := a.Workloads[spec.Name], b.Workloads[spec.Name]
		if ea == nil || eb == nil || ea.EndToEnd == nil || eb.EndToEnd == nil {
			fmt.Fprintf(w, "%-20s missing from one of the sets\n", spec.Name)
			status = 1
			continue
		}
		ra, rb := ea.EndToEnd, eb.EndToEnd
		for _, row := range compareResults(ra, rb) {
			fmt.Fprintf(w, "%-20s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %6.1f%% %6.1f%%  %s\n",
				row.Workload, row.Metric, row.A, row.B, 100*row.WorseBy, 100*row.Bound,
				100*row.SpreadA, 100*row.SpreadB, row.Verdict)
			if row.Verdict != verdictOK {
				status = 1
			}
		}
		for side, r := range map[string]*result{"A": ra, "B": rb} {
			if frac := float64(r.Failed) / float64(max(r.Attempted, 1)); !r.Correct || frac > maxFailedFrac {
				fmt.Fprintf(w, "%-20s set %s: failed %d of %d, correct %v\n", spec.Name, side, r.Failed, r.Attempted, r.Correct)
				status = 1
			}
		}
		if ra.Seed == rb.Seed && ra.ResultSHA256 != "" && ra.ResultSHA256 != rb.ResultSHA256 {
			fmt.Fprintf(w, "%-20s result_sha256 differs at seed %d: %s vs %s\n", spec.Name, ra.Seed, ra.ResultSHA256, rb.ResultSHA256)
			status = 1
		}
	}
	return status
}

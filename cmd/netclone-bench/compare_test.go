package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Doctored-snapshot coverage for the regression ratchet: the acceptance
// bar is that compare exits non-zero on a synthetic >5% events/sec loss
// or any hot-path allocs/op growth, warns (not fails) across hosts, and
// reads schema-1 baselines.

func goodSnapshot() benchFile {
	return benchFile{
		Schema:  4,
		Backend: "sim",
		Host:    &benchHost{GOOS: "linux", GOARCH: "amd64", NumCPU: 8, CPUModel: "testcpu"},
		HotPath: &benchHotPath{Runs: 100, EventsPerSec: 10e6, NSPerOp: 1e6, AllocsPerOp: 104.2},
		EmuLoopback: &benchEmuLoopback{
			Portable: &benchEmuRate{SustainedRPS: 60e3, Rungs: []benchEmuRung{
				{OfferedRPS: 4e3, AchievedRPS: 4e3, CompletedFrac: 0.999},
				{OfferedRPS: 64e3, AchievedRPS: 60e3, CompletedFrac: 0.98},
			}},
			Batched: &benchEmuRate{SustainedRPS: 72e3, Rungs: []benchEmuRung{
				{OfferedRPS: 4e3, AchievedRPS: 4e3, CompletedFrac: 0.999},
				{OfferedRPS: 64e3, AchievedRPS: 72e3, CompletedFrac: 0.99},
			}},
			Speedup: 1.2,
		},
		Runs: []benchExperiment{
			{ID: "fig7a", Gated: true, Points: 9, Events: 6e6, EventsPerSec: 6e6},
			{ID: "table1", Gated: false, Points: 0, Events: 0},
		},
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	r := compareBench(goodSnapshot(), goodSnapshot())
	if len(r.failures) != 0 || len(r.warnings) != 0 {
		t.Fatalf("identical snapshots produced failures %v warnings %v", r.failures, r.warnings)
	}
}

func TestCompareSmallLossWithinTolerancePasses(t *testing.T) {
	cand := goodSnapshot()
	cand.HotPath.EventsPerSec *= 0.96 // -4%: inside the 5% tolerance
	r := compareBench(goodSnapshot(), cand)
	if len(r.failures) != 0 {
		t.Fatalf("4%% loss failed the gate: %v", r.failures)
	}
}

func TestCompareEventsRegressionFails(t *testing.T) {
	cand := goodSnapshot()
	cand.HotPath.EventsPerSec *= 0.90 // -10%: past the 5% tolerance
	r := compareBench(goodSnapshot(), cand)
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "events/sec regressed") {
		t.Fatalf("10%% loss not gated: %v", r.failures)
	}
}

func TestCompareAllocGrowthFails(t *testing.T) {
	cand := goodSnapshot()
	cand.HotPath.AllocsPerOp += 1 // one real extra allocation per op
	r := compareBench(goodSnapshot(), cand)
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "allocs/op grew") {
		t.Fatalf("alloc growth not gated: %v", r.failures)
	}
	// Sub-allocation jitter from the process-wide counter must pass.
	cand = goodSnapshot()
	cand.HotPath.AllocsPerOp += 0.3
	if r := compareBench(goodSnapshot(), cand); len(r.failures) != 0 {
		t.Fatalf("0.3 allocs/op jitter failed the gate: %v", r.failures)
	}
}

func TestCompareCrossHostWarnsInsteadOfFails(t *testing.T) {
	cand := goodSnapshot()
	cand.Host.CPUModel = "othercpu"
	cand.HotPath.EventsPerSec *= 0.5 // a huge loss, but on different hardware
	r := compareBench(goodSnapshot(), cand)
	if len(r.failures) != 0 {
		t.Fatalf("cross-host diff failed instead of warning: %v", r.failures)
	}
	joined := strings.Join(r.warnings, "\n")
	if !strings.Contains(joined, "different hosts") || !strings.Contains(joined, "events/sec regressed") {
		t.Fatalf("cross-host warnings missing: %v", r.warnings)
	}
}

func TestCompareSchema1BaselineTreatedAsDifferentHost(t *testing.T) {
	base := goodSnapshot()
	base.Schema = 1
	base.Host = nil // schema-1 files carry no host metadata
	cand := goodSnapshot()
	cand.HotPath.EventsPerSec *= 0.5
	r := compareBench(base, cand)
	if len(r.failures) != 0 {
		t.Fatalf("schema-1 baseline (unknown host) failed instead of warning: %v", r.failures)
	}
}

func TestCompareUngatedExperimentsSkipped(t *testing.T) {
	cand := goodSnapshot()
	r := compareBench(goodSnapshot(), cand)
	joined := strings.Join(r.lines, "\n")
	if !strings.Contains(joined, "table1") || !strings.Contains(joined, "ungated") {
		t.Fatalf("ungated experiment not named in report: %v", r.lines)
	}
}

func TestCompareExperimentRegressionOnlyWarns(t *testing.T) {
	cand := goodSnapshot()
	cand.Runs[0].EventsPerSec *= 0.8
	r := compareBench(goodSnapshot(), cand)
	if len(r.failures) != 0 {
		t.Fatalf("experiment delta gated (should be report-only): %v", r.failures)
	}
	if !strings.Contains(strings.Join(r.warnings, "\n"), "fig7a") {
		t.Fatalf("experiment regression not warned: %v", r.warnings)
	}
}

// The emu-loopback gate: the batched sustained request rate ratchets
// like the hot path, the absolute 10x-over-pre-batching floor binds
// wherever the batch path is compiled in, and older baselines or
// portable-only hosts degrade to warnings and skipped floors.

func TestCompareEmuBatchedRegressionFails(t *testing.T) {
	base, cand := goodSnapshot(), goodSnapshot()
	base.EmuLoopback.Batched.SustainedRPS = 150e3
	cand.EmuLoopback.Batched.SustainedRPS = 60e3 // -60%: past a full 2x ladder rung, still above the floor
	r := compareBench(base, cand)
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "emu_loopback batched sustained rate regressed") {
		t.Fatalf("emu batched regression not gated: %v", r.failures)
	}
}

func TestCompareEmuOneRungDropPasses(t *testing.T) {
	// The probe's ladder quantizes sustained rate in 2x rungs, so a
	// healthy host oscillates between adjacent rungs across runs; a
	// one-rung drop is noise, not a regression, as long as the floor
	// holds.
	base, cand := goodSnapshot(), goodSnapshot()
	base.EmuLoopback.Batched.SustainedRPS = 120e3
	cand.EmuLoopback.Batched.SustainedRPS = 60e3 // one rung down, above the floor
	r := compareBench(base, cand)
	if len(r.failures) != 0 {
		t.Fatalf("one-rung drop gated: %v", r.failures)
	}
}

func TestCompareEmuSustainedFloorFails(t *testing.T) {
	base, cand := goodSnapshot(), goodSnapshot()
	// Both snapshots sustain only 39k: the ratchet passes, the absolute
	// floor — 10x the pre-batching 4k operating rate — does not.
	base.EmuLoopback.Batched.SustainedRPS = 39e3
	cand.EmuLoopback.Batched.SustainedRPS = 39e3
	r := compareBench(base, cand)
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "below the 40k floor") {
		t.Fatalf("sustained-rate floor not gated: %v", r.failures)
	}
}

func TestCompareEmuPortableOnlyHostSkipsFloor(t *testing.T) {
	base, cand := goodSnapshot(), goodSnapshot()
	for _, bf := range []*benchFile{&base, &cand} {
		bf.EmuLoopback.Batched = nil // non-Linux build: no rings compiled in
		bf.EmuLoopback.Speedup = 0
		bf.EmuLoopback.Portable.SustainedRPS = 20e3 // under the floor, but not gated
	}
	r := compareBench(base, cand)
	if len(r.failures) != 0 || len(r.warnings) != 0 {
		t.Fatalf("portable-only host gated: failures %v warnings %v", r.failures, r.warnings)
	}
	if !strings.Contains(strings.Join(r.lines, "\n"), "floor (40k rps) not enforced") {
		t.Fatalf("unenforced floor not reported: %v", r.lines)
	}
}

func TestCompareSchema3BaselineSkipsEmuGate(t *testing.T) {
	base := goodSnapshot()
	base.Schema = 3
	base.EmuLoopback = nil // predates the probe
	r := compareBench(base, goodSnapshot())
	if len(r.failures) != 0 {
		t.Fatalf("schema-3 baseline failed the emu gate: %v", r.failures)
	}
	if !strings.Contains(strings.Join(r.warnings, "\n"), "no emu_loopback probe") {
		t.Fatalf("skipped emu gate not warned: %v", r.warnings)
	}
}

// TestRunCompareEndToEnd exercises the file-loading path, schema-1
// upgrade, and report-only mode against doctored snapshots on disk.
func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, bf benchFile) string {
		p := filepath.Join(dir, name)
		if err := writeBenchJSON(p, bf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", goodSnapshot())
	bad := goodSnapshot()
	bad.HotPath.EventsPerSec *= 0.8
	cand := write("cand.json", bad)

	var out strings.Builder
	failed, err := runCompare(&out, base, cand, false)
	if err != nil || !failed {
		t.Fatalf("doctored regression: failed=%v err=%v\n%s", failed, err, out.String())
	}
	out.Reset()
	failed, err = runCompare(&out, base, cand, true)
	if err != nil || failed {
		t.Fatalf("report-only still gated: failed=%v err=%v", failed, err)
	}
	if !strings.Contains(out.String(), "report-only") {
		t.Fatalf("report-only verdict missing:\n%s", out.String())
	}
}

// TestReadBenchJSONSchema1Gating upgrades a committed-style schema-1
// file: gating must be inferred from the recorded counters.
func TestReadBenchJSONSchema1Gating(t *testing.T) {
	p := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"schema":1,"backend":"sim","experiments":[
		{"id":"table1","wall_ns":6228,"points":0,"events":0},
		{"id":"fig7a","wall_ns":1,"points":9,"events":100,"events_per_sec":1}]}`
	if err := os.WriteFile(p, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Runs[0].Gated || !bf.Runs[1].Gated {
		t.Fatalf("schema-1 gating wrong: table1=%v fig7a=%v", bf.Runs[0].Gated, bf.Runs[1].Gated)
	}
}

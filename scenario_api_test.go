package netclone_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"netclone"
)

// facadeScenario is the quickstart shape, scaled down for tests.
func facadeScenario() *netclone.Scenario {
	return netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithServers(2, 8),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(1e5),
		netclone.WithWindow(time.Millisecond, 10*time.Millisecond),
		netclone.WithSeed(2),
	)
}

// TestScenarioSimBackend runs the new API end to end on the simulator.
func TestScenarioSimBackend(t *testing.T) {
	res, err := netclone.Sim().Run(facadeScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sim" || res.Completed == 0 || res.Latency.P99 <= 0 {
		t.Fatalf("sim backend result malformed: backend=%q completed=%d", res.Backend, res.Completed)
	}
}

// TestScenarioValidateSurfaced checks validation errors reach facade
// callers with the uniform actionable wording.
func TestScenarioValidateSurfaced(t *testing.T) {
	bad := netclone.NewScenario(
		netclone.WithScheme(netclone.LAEDGE),
		netclone.WithRacks(netclone.Rack{}, netclone.HomRack(4, 8, 0)),
		netclone.WithWorkload(netclone.Exp(25)),
		netclone.WithOfferedLoad(1e5),
		netclone.WithWindow(0, time.Millisecond),
	)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "multi-rack") {
		t.Fatalf("two-rack LAEDGE not rejected usefully: %v", err)
	}
	if _, err := netclone.Sim().Run(bad); err == nil {
		t.Fatal("backend ran an invalid scenario")
	}
}

// TestWithShardsShim pins what is left of the deleted sharded core: the
// option is accepted, changes nothing about the run, and is reported
// back through ShardInfo.
func TestWithShardsShim(t *testing.T) {
	racks := make([]netclone.Rack, 8)
	for i := range racks {
		racks[i] = netclone.HomRack(3, 8, 0)
	}
	fabric := netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithRacks(racks...),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithClients(8),
		netclone.WithOfferedLoad(3e6),
		netclone.WithWindow(0, time.Millisecond),
		netclone.WithSeed(2),
	)
	plain, err := netclone.Sim().Run(fabric)
	if err != nil {
		t.Fatal(err)
	}
	shim, err := netclone.Sim().Run(fabric.With(netclone.WithShards(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Result, shim.Result) {
		t.Error("WithShards(8) changed the run")
	}
	if want := (netclone.ShardInfo{Effective: 1}); plain.ShardInfo != want {
		t.Errorf("no option: ShardInfo %+v, want %+v", plain.ShardInfo, want)
	}
	want := netclone.ShardInfo{Requested: 8, Effective: 1,
		Fallback: "the sharded core was removed; every run uses the sequential engine"}
	if shim.ShardInfo != want {
		t.Errorf("WithShards(8): ShardInfo %+v, want %+v", shim.ShardInfo, want)
	}
	if err := fabric.With(netclone.WithShards(-1)).Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestEmuBackendExperiment is the end-to-end acceptance path: a real
// paper experiment (fig7a) at quick fidelity on the Emu backend through
// the public RunExperiment API — every point spins up an in-process UDP
// cluster, drives live traffic, and lands in the same report shape the
// simulator fills.
func TestEmuBackendExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP emulation experiment skipped in -short mode")
	}
	opts := netclone.QuickOptions()
	opts.DurationNS = 50e6
	opts.LoadFracs = []float64{0.1}
	opts.Backend = netclone.Emu(netclone.EmuMaxRate(2000))
	report, err := netclone.RunExperiment("fig7a", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Series) != 3 {
		t.Fatalf("fig7a on emu has %d series, want 3", len(report.Series))
	}
	for _, s := range report.Series {
		if len(s.Points) != 1 {
			t.Fatalf("series %s has %d points, want 1", s.Label, len(s.Points))
		}
		if s.Points[0].X <= 0 || s.Points[0].Y <= 0 {
			t.Errorf("series %s measured nothing: %+v", s.Label, s.Points[0])
		}
	}
	var buf bytes.Buffer
	if err := netclone.RenderText(&buf, report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NetClone") {
		t.Errorf("emu report missing NetClone series:\n%s", buf.String())
	}
}

// TestRenderJSON checks the machine-readable render satellite.
func TestRenderJSON(t *testing.T) {
	r := netclone.Report{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y",
		Series: []netclone.ReportSeries{{
			Label:  "s1",
			Points: []netclone.ReportPoint{{X: 1, Y: 2}, {X: 3, Y: 4, Err: 0.5}},
		}},
		Notes: []string{"a note"},
	}
	var buf bytes.Buffer
	if err := netclone.RenderJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "demo"`, `"label": "s1"`, `"err": 0.5`, `"a note"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, buf.String())
		}
	}
}

// TestFacadeLeafSpine exercises the fabric topology API end to end
// through the facade: a WithRacks fabric runs and rolls its counters up
// per rack, and only the clients' ToR clones.
func TestFacadeLeafSpine(t *testing.T) {
	sim := netclone.Sim()
	fabric := netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithRacks(
			netclone.HomRack(2, 8, 0),
			netclone.HomRack(2, 8, 2*time.Microsecond),
			netclone.Rack{Servers: []int{4}, Uplink: 500 * time.Nanosecond},
		),
		netclone.WithPlacement(0),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(1e5),
		netclone.WithWindow(time.Millisecond, 10*time.Millisecond),
		netclone.WithSeed(2),
	)
	res, err := sim.Run(fabric)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Racks) != 3 {
		t.Fatalf("per-rack rollup has %d racks, want 3", len(res.Racks))
	}
	if res.Racks[0].Switch.Cloned == 0 {
		t.Error("clients' ToR never cloned at low load")
	}
	for _, rs := range res.Racks[1:] {
		if rs.Switch.Cloned != 0 {
			t.Errorf("rack %d ToR cloned %d requests (ownership rule)", rs.Rack, rs.Switch.Cloned)
		}
	}
}

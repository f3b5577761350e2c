package simcluster

import (
	"reflect"
	"strings"
	"testing"

	"netclone/internal/topology"
)

// twoRack moves every worker of cfg behind a second ToR reached from the
// clients' empty rack through the spine — the paper's two-ToR
// deployment (§3.7), 2000 ns one way with the default uplinks.
func twoRack(cfg Config) Config {
	cfg.Topology = topology.New(topology.Rack{}, topology.Rack{Servers: cfg.Workers})
	return cfg
}

func TestMultiRackConservation(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, CClone, NetClone, NetCloneRackSched} {
		res := mustRun(t, twoRack(fastConfig(scheme)))
		if res.Completed != res.Generated {
			t.Errorf("%v multi-rack lost requests: %d/%d", scheme, res.Completed, res.Generated)
		}
	}
}

func TestMultiRackRejectsLaedge(t *testing.T) {
	_, err := Run(twoRack(fastConfig(LAEDGE)))
	if err == nil || !strings.Contains(err.Error(), "not modelled for LAEDGE") {
		t.Fatalf("LAEDGE on two racks not rejected usefully: %v", err)
	}
}

// TestMultiRackOwnershipRule is the §3.7 invariant: the server-side ToR
// runs the full NetClone program but must never clone, sequence, filter,
// or track state for packets stamped by the client-side ToR.
func TestMultiRackOwnershipRule(t *testing.T) {
	res := mustRun(t, twoRack(fastConfig(NetClone)))

	if res.Switch.Cloned == 0 {
		t.Fatal("client-side ToR never cloned at low load")
	}
	if len(res.Racks) != 2 {
		t.Fatalf("per-rack rollup has %d racks, want 2", len(res.Racks))
	}
	remote := res.Racks[1].Switch
	if remote.PassL3 == 0 {
		t.Fatal("server-side ToR never exercised the pass-through path")
	}
	if remote.Cloned != 0 {
		t.Errorf("server-side ToR cloned %d requests (double cloning!)", remote.Cloned)
	}
	if remote.Requests != 0 {
		t.Errorf("server-side ToR NetClone-processed %d requests", remote.Requests)
	}
	if remote.StateUpdates != 0 {
		t.Errorf("server-side ToR updated state %d times", remote.StateUpdates)
	}
	if remote.FilterDrops != 0 || remote.FilterInserts != 0 {
		t.Errorf("server-side ToR touched filter tables (%d drops, %d inserts)",
			remote.FilterDrops, remote.FilterInserts)
	}
}

func TestMultiRackLatencyIncludesAggLayer(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.OfferedRPS = 50_000
	single := mustRun(t, cfg)
	multi := mustRun(t, twoRack(cfg))

	// Every request and every response crosses the spine once, each
	// crossing paying both racks' uplinks: the latency floor moves up
	// by at least twice the one-way fabric delay.
	const agg = 2 * int64(topology.DefaultUplink)
	extra := multi.Latency.Min - single.Latency.Min
	if extra < 2*agg {
		t.Errorf("multi-rack min latency extra %dns, want >= %dns", extra, 2*agg)
	}
	// And cloning still wins on the tail in multi-rack deployments.
	cfgB := cfg
	cfgB.Scheme = Baseline
	base := mustRun(t, twoRack(cfgB))
	if multi.Latency.P99 >= base.Latency.P99 {
		t.Errorf("multi-rack NetClone p99 %d >= baseline %d", multi.Latency.P99, base.Latency.P99)
	}
}

func TestMultiRackDeterminism(t *testing.T) {
	cfg := twoRack(fastConfig(NetClone))
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Latency != b.Latency || !reflect.DeepEqual(a.Racks, b.Racks) {
		t.Error("multi-rack runs not deterministic")
	}
}

func TestSingleRackHasNoRemoteStats(t *testing.T) {
	if res := mustRun(t, fastConfig(NetClone)); res.Racks != nil {
		t.Errorf("single-rack run reported a per-rack rollup: %+v", res.Racks)
	}
}

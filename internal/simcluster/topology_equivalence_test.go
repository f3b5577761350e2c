package simcluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"netclone/internal/kvstore"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// These tests pin the fabric layer: a one-rack spec is byte-identical
// to the topology-less single-rack cluster across every scheme and both
// warmup modes, per-rack counters roll up, and fabric contradictions
// are rejected with one message.

// eqTopoConfig builds a small config for one scheme and warmup mode.
func eqTopoConfig(scheme Scheme, warmupNS int64) Config {
	return Config{
		Scheme:     scheme,
		Workers:    []int{8, 8, 4, 4},
		Service:    workload.WithJitter(workload.Exp(25), 0.01),
		OfferedRPS: 2e5,
		WarmupNS:   warmupNS,
		DurationNS: 8e6,
		Seed:       11,
	}
}

// forEachSchemeAndWarmupMode runs f over the full scheme x warmup grid.
func forEachSchemeAndWarmupMode(t *testing.T, schemes []Scheme, f func(t *testing.T, cfg Config)) {
	t.Helper()
	for _, scheme := range schemes {
		for _, w := range []struct {
			name     string
			warmupNS int64
		}{
			{"no-warmup", 0},
			{"warmup", 2e6},
		} {
			t.Run(scheme.String()+"/"+w.name, func(t *testing.T) {
				f(t, eqTopoConfig(scheme, w.warmupNS))
			})
		}
	}
}

// TestSingleRackTopologyByteIdentical: declaring the trivial one-rack
// fabric explicitly changes nothing — not the latencies, not the
// counters, not even the engine's event count. LAEDGE is included:
// a single-rack fabric is valid for every scheme.
func TestSingleRackTopologyByteIdentical(t *testing.T) {
	all := []Scheme{Baseline, CClone, LAEDGE, NetClone, NetCloneRackSched, NetCloneNoFilter}
	forEachSchemeAndWarmupMode(t, all, func(t *testing.T, cfg Config) {
		legacy := mustRun(t, cfg)
		withSpec := cfg
		withSpec.Topology = topology.SingleRack(cfg.Workers)
		explicit := mustRun(t, withSpec)
		if !reflect.DeepEqual(legacy, explicit) {
			t.Errorf("one-rack topology diverged from the legacy single-rack path:\nlegacy:   %+v\ntopology: %+v",
				legacy.Latency, explicit.Latency)
		}
		if explicit.Racks != nil {
			t.Error("single-rack run reported a per-rack rollup")
		}
	})
}

// TestTopologyRollupConsistency: per-rack counters must roll up to the
// global ones, NetClone activity must be confined to the clients' ToR,
// and a mixed local/remote fabric (inexpressible before this layer)
// must conserve requests.
func TestTopologyRollupConsistency(t *testing.T) {
	cfg := eqTopoConfig(NetClone, 2e6)
	cfg.Workers = nil // filled from the fabric
	cfg.Topology = topology.New(
		topology.Rack{Servers: []int{8, 8}}, // clients share rack 0 with two servers
		topology.Rack{Servers: []int{4}, Uplink: 2 * time.Microsecond},
		topology.Rack{Servers: []int{4, 4}, Uplink: 500 * time.Nanosecond},
	)
	res := mustRun(t, cfg)
	if res.Completed != res.Generated {
		t.Errorf("mixed local/remote fabric lost requests: %d/%d", res.Completed, res.Generated)
	}
	if len(res.Racks) != 3 {
		t.Fatalf("rollup has %d racks, want 3", len(res.Racks))
	}
	var cloneDrops int64
	for r, rs := range res.Racks {
		cloneDrops += rs.CloneDropsAtServer
		if rs.Rack != r {
			t.Errorf("rollup rack %d labelled %d", r, rs.Rack)
		}
		if r == 0 {
			if rs.Switch.Cloned == 0 {
				t.Error("clients' ToR never cloned at low load")
			}
			continue
		}
		if rs.Switch.Cloned != 0 || rs.Switch.Requests != 0 || rs.Switch.StateUpdates != 0 {
			t.Errorf("rack %d ToR ran NetClone processing: %+v", r, rs.Switch)
		}
		if rs.Switch.PassL3 == 0 {
			t.Errorf("rack %d ToR never passed a stamped packet through", r)
		}
	}
	if cloneDrops != res.CloneDropsAtServer {
		t.Errorf("per-rack clone drops sum to %d, global counter says %d", cloneDrops, res.CloneDropsAtServer)
	}
	if want := []int{2, 1, 2}; res.Racks[0].Servers != want[0] || res.Racks[1].Servers != want[1] || res.Racks[2].Servers != want[2] {
		t.Errorf("rollup server counts: %+v", res.Racks)
	}
}

// TestTopologyDirectWritesCrossTheFabric: write requests bypass
// NetClone processing (§5.5) but not the fabric — a SET bound for a
// remote rack pays the spine transit on the way in, symmetrically
// with its response on the way out.
func TestTopologyDirectWritesCrossTheFabric(t *testing.T) {
	base := eqTopoConfig(NetClone, 0)
	base.Service = nil
	base.Mix = workload.NewKVMix(0, 0, 1024, 0.99) // every request is a SET (direct path)
	base.Cost = kvstore.Redis()
	base.OfferedRPS = 5e4

	single := mustRun(t, base)

	remote := base
	remote.Topology = topology.New(
		topology.Rack{},
		topology.Rack{Servers: base.Workers, Uplink: 5 * time.Microsecond},
	)
	multi := mustRun(t, remote)
	if multi.Completed != multi.Generated {
		t.Errorf("remote-rack writes lost: %d/%d", multi.Completed, multi.Generated)
	}
	// Every request and response crosses the spine once: the latency
	// floor moves up by at least 2x the inter-rack delay (uplink sum,
	// 1000 default + 5000 explicit).
	extra := multi.Latency.Min - single.Latency.Min
	if want := int64(2 * (1000 + 5000)); extra < want {
		t.Errorf("remote-rack write min latency extra %dns, want >= %dns (requests must transit the fabric too)", extra, want)
	}
}

// TestTopologyWorkersMismatchRejected: a Workers list that disagrees
// with the fabric's server list is a contradiction, not a silent
// preference.
func TestTopologyWorkersMismatchRejected(t *testing.T) {
	cfg := eqTopoConfig(NetClone, 0)
	cfg.Topology = topology.SingleRack([]int{8, 8}) // cfg.Workers says {8,8,4,4}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("mismatched Workers/Topology not rejected usefully: %v", err)
	}
	placed := eqTopoConfig(NetClone, 0)
	placed.Topology = (*topology.Spec)(nil).WithClientRack(0) // placement-only spec
	if _, err := Run(placed); err == nil || !strings.Contains(err.Error(), "no racks") {
		t.Fatalf("placement-only Topology not rejected usefully: %v", err)
	}
}

// TestTopologyLaedgeRejectedUniformly: the LAEDGE contradiction lives
// in topology.Validate; every multi-rack shape — the two-ToR deployment
// with an empty client rack, or servers on both racks — surfaces the
// same message.
func TestTopologyLaedgeRejectedUniformly(t *testing.T) {
	_, errTwoToR := Run(twoRack(eqTopoConfig(LAEDGE, 0)))

	split := eqTopoConfig(LAEDGE, 0)
	split.Topology = topology.New(
		topology.Rack{Servers: split.Workers[:2]},
		topology.Rack{Servers: split.Workers[2:]},
	)
	_, errSplit := Run(split)

	for name, err := range map[string]error{"two-ToR": errTwoToR, "split": errSplit} {
		if err == nil || !strings.Contains(err.Error(), "not modelled for LAEDGE") {
			t.Errorf("%s: LAEDGE multi-rack not rejected with the uniform message: %v", name, err)
		}
	}
	if errTwoToR != nil && errSplit != nil && errTwoToR.Error() != errSplit.Error() {
		t.Errorf("the two shapes emit different messages:\ntwo-ToR: %v\nsplit:   %v", errTwoToR, errSplit)
	}
}

// FuzzTopologyRunPure: a run over any valid fuzz-derived fabric is a
// pure function of (spec, seed) — two executions are deeply equal,
// including every per-rack counter.
func FuzzTopologyRunPure(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint16(1000), uint64(1), false)
	f.Add(uint8(3), uint8(1), uint16(0), uint64(7), true)
	f.Add(uint8(1), uint8(3), uint16(2500), uint64(3), false)
	f.Fuzz(func(t *testing.T, racks, perRack uint8, uplinkNS uint16, seed uint64, emptyClientRack bool) {
		nRacks := int(racks)%4 + 1
		nSrv := int(perRack)%3 + 1
		var specRacks []topology.Rack
		for r := 0; r < nRacks; r++ {
			servers := make([]int, nSrv)
			for i := range servers {
				servers[i] = 2 + (r+i)%3
			}
			// Vary per-link latency across racks from the fuzzed base.
			up := time.Duration(uplinkNS) + time.Duration(r)*300*time.Nanosecond
			specRacks = append(specRacks, topology.Rack{Servers: servers, Uplink: up})
		}
		if emptyClientRack && nRacks > 1 {
			specRacks[0].Servers = nil
		}
		spec := topology.New(specRacks...)
		if err := spec.Validate(topology.Cluster{}); err != nil {
			t.Skip() // fuzz produced an invalid shape (e.g. one server total)
		}
		cfg := Config{
			Scheme:     NetClone,
			Topology:   spec,
			Service:    workload.WithJitter(workload.Exp(25), 0.01),
			OfferedRPS: 1e5,
			DurationNS: 2e6,
			Seed:       seed,
		}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("topology run not pure in (spec, seed):\nfirst:  %+v\nsecond: %+v", a.Latency, b.Latency)
		}
	})
}

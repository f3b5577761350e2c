package simcluster

import (
	"testing"
	"time"

	"netclone/internal/faults"
	"netclone/internal/kvstore"
	"netclone/internal/workload"
)

// fastConfig returns a small configuration that runs in a few
// milliseconds of wall time: 4 servers x 4 workers, Exp(25) service,
// non-saturating load.
func fastConfig(scheme Scheme) Config {
	return Config{
		Scheme:     scheme,
		Workers:    []int{4, 4, 4, 4},
		Service:    workload.WithJitter(workload.Exp(25), 0.01),
		OfferedRPS: 200_000, // ~36% of the ~560 KRPS capacity
		WarmupNS:   10e6,
		DurationNS: 40e6,
		Seed:       42,
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	base := fastConfig(NetClone)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no servers", func(c *Config) { c.Workers = nil }},
		{"one server", func(c *Config) { c.Workers = []int{4} }},
		{"zero workers", func(c *Config) { c.Workers = []int{4, 0} }},
		{"no workload", func(c *Config) { c.Service = nil }},
		{"zero rate", func(c *Config) { c.OfferedRPS = 0 }},
		{"zero duration", func(c *Config) { c.DurationNS = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mut(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("expected configuration error")
			}
		})
	}
}

func TestSchemeStrings(t *testing.T) {
	for s := Baseline; s <= NetCloneNoFilter; s++ {
		if s.String() == "" {
			t.Errorf("Scheme(%d) has empty name", s)
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme must stringify")
	}
}

func TestDeterminism(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, CClone, LAEDGE, NetClone, NetCloneRackSched} {
		a := mustRun(t, fastConfig(scheme))
		b := mustRun(t, fastConfig(scheme))
		if a.Latency != b.Latency || a.Completed != b.Completed || a.Generated != b.Generated ||
			a.Switch != b.Switch || a.RedundantAtClient != b.RedundantAtClient {
			t.Errorf("%v: identical seeds produced different results", scheme)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	cfg := fastConfig(NetClone)
	a := mustRun(t, cfg)
	cfg.Seed = 43
	b := mustRun(t, cfg)
	if a.Latency == b.Latency && a.Generated == b.Generated {
		t.Error("different seeds produced byte-identical results (suspicious)")
	}
}

func TestConservationNoLoss(t *testing.T) {
	// Without failures and below saturation, every generated request
	// completes after the drain period.
	for _, scheme := range []Scheme{Baseline, CClone, LAEDGE, NetClone, NetCloneRackSched, NetCloneNoFilter} {
		res := mustRun(t, fastConfig(scheme))
		if res.Generated == 0 {
			t.Fatalf("%v: no requests generated", scheme)
		}
		if res.Completed != res.Generated {
			t.Errorf("%v: completed %d != generated %d", scheme, res.Completed, res.Generated)
		}
	}
}

func TestThroughputTracksOfferedLoad(t *testing.T) {
	res := mustRun(t, fastConfig(NetClone))
	ratio := res.ThroughputRPS / res.OfferedRPS
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("throughput %.0f vs offered %.0f (ratio %.2f)", res.ThroughputRPS, res.OfferedRPS, ratio)
	}
}

func TestBaselineNeverClones(t *testing.T) {
	res := mustRun(t, fastConfig(Baseline))
	if res.Switch.Cloned != 0 {
		t.Errorf("baseline cloned %d requests", res.Switch.Cloned)
	}
	if res.RedundantAtClient != 0 {
		t.Errorf("baseline produced %d redundant responses", res.RedundantAtClient)
	}
}

func TestNetCloneClonesAtLowLoad(t *testing.T) {
	res := mustRun(t, fastConfig(NetClone))
	if res.Switch.Cloned == 0 {
		t.Fatal("NetClone never cloned at low load")
	}
	// At ~36% load most requests should be cloned (queues mostly empty).
	frac := float64(res.Switch.Cloned) / float64(res.Generated)
	if frac < 0.5 {
		t.Errorf("clone fraction %.2f at low load, want > 0.5", frac)
	}
	// Filtering must remove essentially all redundant responses; a few
	// can leak via fingerprint overwrites under hash collisions.
	if float64(res.RedundantAtClient) > 0.01*float64(res.Completed) {
		t.Errorf("redundant responses %d with filtering on (completed %d)",
			res.RedundantAtClient, res.Completed)
	}
}

func TestNetCloneFilterDropsMatchClones(t *testing.T) {
	res := mustRun(t, fastConfig(NetClone))
	st := res.Switch
	// Every cloned request that was not dropped at the server produces a
	// slower response that the filter drops (modulo overwrite leaks).
	expected := st.Cloned - res.CloneDropsAtServer
	leak := expected - st.FilterDrops
	if leak < 0 {
		t.Fatalf("more filter drops (%d) than redundant responses (%d)", st.FilterDrops, expected)
	}
	if float64(leak) > 0.01*float64(expected)+1 {
		t.Errorf("filter leaked %d of %d redundant responses", leak, expected)
	}
}

func TestCCloneDuplicatesEverything(t *testing.T) {
	res := mustRun(t, fastConfig(CClone))
	if res.Switch.Cloned != 0 {
		t.Error("C-Clone must not use switch cloning")
	}
	// Every request sends two copies; the slower response is redundant
	// client work.
	if res.RedundantAtClient != res.Completed {
		t.Errorf("redundant %d != completed %d (every C-Clone request has a duplicate)",
			res.RedundantAtClient, res.Completed)
	}
}

func TestNetCloneBeatsBaselineTailAtLowLoad(t *testing.T) {
	// Low load (~20%) with wider servers: queues are almost always empty,
	// so nearly everything is cloned and the jitter tail is masked.
	cfg := fastConfig(Baseline)
	cfg.Workers = []int{8, 8, 8, 8}
	cfg.OfferedRPS = 120_000
	cfg.DurationNS = 60e6
	base := mustRun(t, cfg)
	cfg.Scheme = NetClone
	nc := mustRun(t, cfg)
	if nc.Latency.P99 >= base.Latency.P99 {
		t.Errorf("NetClone p99 %d >= baseline p99 %d at low load (cloning should mask jitter)",
			nc.Latency.P99, base.Latency.P99)
	}
	// The win must be substantial (the paper reports ~1.5-2x on Exp(25)).
	if float64(base.Latency.P99)/float64(nc.Latency.P99) < 1.3 {
		t.Errorf("improvement only %.2fx, want > 1.3x",
			float64(base.Latency.P99)/float64(nc.Latency.P99))
	}
}

func TestCCloneThroughputHalved(t *testing.T) {
	// 2 servers x 2 workers, Exp(25): capacity ~160 KRPS (~145 with
	// jitter). C-Clone doubles server load, halving capacity; offered 120
	// KRPS saturates C-Clone but not the baseline.
	cfg := fastConfig(CClone)
	cfg.Workers = []int{2, 2}
	cfg.OfferedRPS = 120_000
	cfg.DurationNS = 60e6
	cc := mustRun(t, cfg)
	cfg.Scheme = Baseline
	bl := mustRun(t, cfg)
	if bl.ThroughputRPS < 110_000 {
		t.Fatalf("baseline saturated unexpectedly: %.0f", bl.ThroughputRPS)
	}
	if cc.ThroughputRPS > 0.85*bl.ThroughputRPS {
		t.Errorf("C-Clone throughput %.0f not limited vs baseline %.0f",
			cc.ThroughputRPS, bl.ThroughputRPS)
	}
}

func TestCloneDropsUnderLoad(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.OfferedRPS = 450_000 // ~80% load: stale idle states appear
	cfg.DurationNS = 60e6
	res := mustRun(t, cfg)
	if res.CloneDropsAtServer == 0 {
		t.Error("expected stale-state clone drops at high load (§3.4)")
	}
}

func TestEmptyQueueFractionDecreasesWithLoad(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.OfferedRPS = 100_000
	low := mustRun(t, cfg)
	cfg.OfferedRPS = 480_000
	high := mustRun(t, cfg)
	if low.EmptyQueueFrac <= high.EmptyQueueFrac {
		t.Errorf("empty-queue fraction did not decrease with load: %.2f -> %.2f",
			low.EmptyQueueFrac, high.EmptyQueueFrac)
	}
	if low.EmptyQueueFrac < 0.9 {
		t.Errorf("empty-queue fraction at 18%% load = %.2f, want > 0.9", low.EmptyQueueFrac)
	}
}

func TestLaedgeCoordinatorDedups(t *testing.T) {
	res := mustRun(t, fastConfig(LAEDGE))
	// The coordinator forwards exactly one response per request.
	if res.RedundantAtClient != 0 {
		t.Errorf("LAEDGE leaked %d redundant responses to clients", res.RedundantAtClient)
	}
	if res.Switch.Cloned != 0 {
		t.Error("LAEDGE must not use switch cloning")
	}
}

func TestLaedgeSaturatesBelowNetClone(t *testing.T) {
	// At a rate NetClone handles easily, the coordinator CPU melts.
	cfg := fastConfig(LAEDGE)
	cfg.OfferedRPS = 500_000
	cfg.DurationNS = 60e6
	la := mustRun(t, cfg)
	cfg.Scheme = NetClone
	nc := mustRun(t, cfg)
	if la.ThroughputRPS > 0.9*nc.ThroughputRPS {
		t.Errorf("LAEDGE throughput %.0f not below NetClone %.0f",
			la.ThroughputRPS, nc.ThroughputRPS)
	}
}

func TestRackSchedHelpsHeterogeneous(t *testing.T) {
	// Heterogeneous workers at high load: JSQ fallback must beat
	// first-candidate forwarding (Fig 10b).
	cfg := fastConfig(NetClone)
	cfg.Workers = []int{8, 8, 3, 3}
	cfg.OfferedRPS = 600_000 // ~78% of the 770 KRPS capacity
	cfg.DurationNS = 80e6
	nc := mustRun(t, cfg)
	cfg.Scheme = NetCloneRackSched
	rs := mustRun(t, cfg)
	if rs.Latency.P99 >= nc.Latency.P99 {
		t.Errorf("RackSched p99 %d >= NetClone p99 %d on heterogeneous cluster",
			rs.Latency.P99, nc.Latency.P99)
	}
	if rs.Switch.JSQFallback == 0 {
		t.Error("RackSched never used JSQ fallback")
	}
}

func TestNoFilterLeaksRedundant(t *testing.T) {
	res := mustRun(t, fastConfig(NetCloneNoFilter))
	if res.RedundantAtClient == 0 {
		t.Fatal("filtering disabled but no redundant responses at client")
	}
	if res.Switch.FilterDrops != 0 {
		t.Error("filter dropped packets despite being disabled")
	}
}

func TestSwitchFailureTimeline(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.WarmupNS = 0
	cfg.DurationNS = 500e6
	cfg.Faults = faults.New(faults.SwitchOutage(200*time.Millisecond, 300*time.Millisecond))
	cfg.TimelineBinNS = 100e6
	res := mustRun(t, cfg)
	rate := res.Timeline.Rate()
	if len(rate) < 5 {
		t.Fatalf("timeline too short: %d bins", len(rate))
	}
	before, during, after := rate[1], rate[2], rate[4]
	if during > 0.05*before {
		t.Errorf("throughput during failure %.0f, want ~0 (before %.0f)", during, before)
	}
	if after < 0.8*before {
		t.Errorf("throughput after recovery %.0f did not recover (before %.0f)", after, before)
	}
	if res.Completed >= res.Generated {
		t.Error("failure window should lose some requests")
	}
}

func TestKVWorkloadRuns(t *testing.T) {
	cfg := Config{
		Scheme:     NetClone,
		Workers:    []int{4, 4, 4, 4},
		Mix:        workload.NewKVMix(0.99, 0.01, 100_000, 0.99),
		Cost:       kvstore.Redis(),
		OfferedRPS: 60_000, // capacity ~16/76us = 210K
		WarmupNS:   20e6,
		DurationNS: 80e6,
		Seed:       9,
	}
	res := mustRun(t, cfg)
	if res.Completed != res.Generated {
		t.Errorf("KV run lost requests: %d/%d", res.Completed, res.Generated)
	}
	if res.ThroughputRPS < 0.85*cfg.OfferedRPS {
		t.Errorf("KV throughput %.0f below offered %.0f", res.ThroughputRPS, cfg.OfferedRPS)
	}
}

func TestKVWritesAreNeverCloned(t *testing.T) {
	// A write-only mix must produce zero switch clones: writes take the
	// normal (direct) path (§5.5).
	cfg := Config{
		Scheme:     NetClone,
		Workers:    []int{4, 4},
		Mix:        workload.NewKVMix(0, 0, 1000, 0.99), // 100% SET
		Cost:       kvstore.Redis(),
		OfferedRPS: 30_000,
		WarmupNS:   5e6,
		DurationNS: 30e6,
		Seed:       10,
	}
	res := mustRun(t, cfg)
	if res.Switch.Cloned != 0 {
		t.Errorf("write requests were cloned %d times", res.Switch.Cloned)
	}
	if res.Switch.Requests != 0 {
		t.Errorf("write requests took the NetClone path (%d)", res.Switch.Requests)
	}
	if res.Completed != res.Generated {
		t.Errorf("writes lost: %d/%d", res.Completed, res.Generated)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.NumClients = 0
	cfg.FilterTables = 0
	cfg.FilterSlots = 0
	got, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClients != 2 || got.FilterTables != 2 || got.FilterSlots != 1<<17 {
		t.Errorf("defaults not applied: %+v", got)
	}
	if got.Cal == (Calibration{}) {
		t.Error("calibration defaults not applied")
	}
}

func TestLatencyFloorSane(t *testing.T) {
	// The minimum latency must be at least the hard path delays: TX cost
	// + 4 link hops + 2 switch passes + dispatcher + 1ns service + RX.
	res := mustRun(t, fastConfig(Baseline))
	cal := DefaultCalibration()
	floor := 2*cal.ClientPktCostNS + 4*cal.LinkDelayNS + 2*cal.SwitchDelayNS + cal.DispatcherCostNS
	if res.Latency.Min < floor {
		t.Errorf("min latency %d below physical floor %d", res.Latency.Min, floor)
	}
}

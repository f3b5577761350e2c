package simcluster

import "testing"

func TestMultiCoordinatorConservation(t *testing.T) {
	cfg := fastConfig(LAEDGE)
	cfg.NumCoordinators = 3
	res := mustRun(t, cfg)
	if res.Completed != res.Generated {
		t.Fatalf("multi-coordinator lost requests: %d/%d", res.Completed, res.Generated)
	}
	if res.RedundantAtClient != 0 {
		t.Errorf("coordinators leaked %d redundant responses", res.RedundantAtClient)
	}
}

func TestMultiCoordinatorScalesThroughput(t *testing.T) {
	// At a rate that melts one coordinator, three coordinators (each
	// owning a third of the workers) sustain clearly more. Worker
	// capacity (6x16 threads ~ 3.4 MRPS) is sized so the coordinator CPU,
	// not the partitions, is the binding constraint.
	cfg := fastConfig(LAEDGE)
	cfg.Workers = []int{16, 16, 16, 16, 16, 16}
	cfg.OfferedRPS = 1_500_000
	cfg.DurationNS = 60e6

	cfg.NumCoordinators = 1
	one := mustRun(t, cfg)
	cfg.NumCoordinators = 3
	three := mustRun(t, cfg)
	if three.ThroughputRPS < 1.5*one.ThroughputRPS {
		t.Errorf("3 coordinators %.0f RPS, 1 coordinator %.0f RPS: expected >1.5x scaling",
			three.ThroughputRPS, one.ThroughputRPS)
	}
}

func TestMultiCoordinatorDeterminism(t *testing.T) {
	cfg := fastConfig(LAEDGE)
	cfg.NumCoordinators = 2
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Latency != b.Latency || a.Completed != b.Completed {
		t.Error("multi-coordinator runs not deterministic")
	}
}

// TestLaedgeDuplicateReturnsToOwner pins that a coordinator's duplicate
// carries its owner: with several coordinators, both copies' responses
// must come back to the coordinator that cloned them, which forwards
// exactly one. A duplicate routed to another coordinator would reach
// the client as a second response.
func TestLaedgeDuplicateReturnsToOwner(t *testing.T) {
	for _, k := range []int{2, 3} {
		cfg := fastConfig(LAEDGE)
		cfg.Workers = []int{8, 8, 8, 8, 8, 8}
		cfg.OfferedRPS = 570_000 // ~30% of 48 workers at a 25 us mean
		cfg.WarmupNS, cfg.DurationNS = 1e6, 3e6
		cfg.Seed = 3
		cfg.NumCoordinators = k
		res := mustRun(t, cfg)
		if res.Completed == 0 {
			t.Fatalf("%d coordinators: nothing completed", k)
		}
		if res.RedundantAtClient != 0 {
			t.Errorf("%d coordinators: %d redundant responses reached clients", k, res.RedundantAtClient)
		}
	}
}

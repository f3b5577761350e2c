package netclone_test

import (
	"reflect"
	"testing"
	"time"

	"netclone"
)

// These tests pin the fault subsystem through the facade: an empty
// fault plan produces byte-identical Result values to no plan at all
// across every scheme and both warmup modes, and a plan built from the
// exported constructors runs and reports what it did.

// allSchemes is the full scheme inventory.
var allSchemes = []netclone.Scheme{
	netclone.Baseline, netclone.CClone, netclone.LAEDGE,
	netclone.NetClone, netclone.NetCloneRackSched, netclone.NetCloneNoFilter,
}

// eqBase builds a small scenario for one scheme and warmup mode.
func eqBase(scheme netclone.Scheme, warmup time.Duration) *netclone.Scenario {
	return netclone.NewScenario(
		netclone.WithScheme(scheme),
		netclone.WithServers(4, 8),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(2e5),
		netclone.WithWindow(warmup, 8*time.Millisecond),
		netclone.WithSeed(11),
	)
}

// forEachSchemeAndWarmup runs f over the scheme x warmup-mode grid.
func forEachSchemeAndWarmup(t *testing.T, f func(t *testing.T, sc *netclone.Scenario)) {
	for _, scheme := range allSchemes {
		for _, w := range []struct {
			name   string
			warmup time.Duration
		}{
			{"no-warmup", 0},
			{"warmup", 2 * time.Millisecond},
		} {
			t.Run(scheme.String()+"/"+w.name, func(t *testing.T) {
				f(t, eqBase(scheme, w.warmup))
			})
		}
	}
}

// TestEmptyFaultPlanByteIdentical: attaching an empty plan changes
// nothing — not the latencies, not the counters, not even the engine's
// event count.
func TestEmptyFaultPlanByteIdentical(t *testing.T) {
	sim := netclone.Sim()
	forEachSchemeAndWarmup(t, func(t *testing.T, sc *netclone.Scenario) {
		plain, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		withEmpty, err := sim.Run(sc.With(netclone.WithFaults(netclone.NewFaultPlan())))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withEmpty) {
			t.Errorf("empty fault plan changed the Result:\nplain: %+v\nplan:  %+v", plain, withEmpty)
		}
		if withEmpty.Faults != nil {
			t.Error("empty plan produced a FaultSummary")
		}
	})
}

// TestFaultPlanRoundTripFacade smoke-tests the facade surface: a
// multi-injection plan built from the exported constructors validates,
// runs, and reports its windows and degraded view.
func TestFaultPlanRoundTripFacade(t *testing.T) {
	plan := netclone.NewFaultPlan(
		netclone.FaultServerCrash(0, 2*time.Millisecond, 4*time.Millisecond),
		netclone.FaultServerSlowdown(1, time.Millisecond, 6*time.Millisecond, 3, time.Millisecond),
		netclone.FaultLossRamp(5*time.Millisecond, 7*time.Millisecond, 0.3, 0),
	)
	sc := eqBase(netclone.NetClone, 0).With(netclone.WithFaults(plan))
	if err := sc.Validate(); err != nil {
		t.Fatalf("facade-built plan rejected: %v", err)
	}
	res, err := netclone.Sim().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f == nil {
		t.Fatal("no FaultSummary on a faulted run")
	}
	if len(f.Windows) != 3 || f.Windows[0].Kind != "server-crash" || f.Windows[2].Kind != "loss" {
		t.Errorf("executed windows wrong: %+v", f.Windows)
	}
	if f.ServersDownMax != 1 {
		t.Errorf("ServersDownMax = %d, want 1", f.ServersDownMax)
	}
	if f.DroppedPackets == 0 {
		t.Error("a 2ms server crash dropped no packets")
	}
	if f.DegradedCompleted == 0 || f.Degraded.P99 <= 0 {
		t.Errorf("degraded-window view empty: %+v", f)
	}
	if res.LostPackets == 0 {
		t.Error("the loss burst dropped nothing")
	}
}

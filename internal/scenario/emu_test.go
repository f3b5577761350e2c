package scenario

import (
	"testing"
	"time"

	"netclone/internal/faults"
	"netclone/internal/kvstore"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// emuScenario returns a small scenario every emu test shares: two
// servers, one client, a short window.
func emuScenario(extra ...Option) *Scenario {
	return New(append([]Option{
		WithScheme(simcluster.NetClone),
		WithServers(2, 2),
		WithClients(1),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(2000),
		WithWindow(0, 200*time.Millisecond),
		WithSeed(11),
	}, extra...)...)
}

// TestEmuNetCloneCounters runs a NetClone scenario over real sockets and
// checks the unified counters: requests complete, idle-pair clones
// happen, slower twins are filtered, and the emulation-only counters
// (Server.Processed, Server.CloneDrops, Client.Redundant) surface
// through the Result.
func TestEmuNetCloneCounters(t *testing.T) {
	res, err := Emu().Run(emuScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "emu" {
		t.Errorf("backend = %q, want emu", res.Backend)
	}
	if res.Generated < 20 || res.Completed < res.Generated*9/10 {
		t.Errorf("completed %d of %d generated", res.Completed, res.Generated)
	}
	if res.Latency.Count != res.Completed {
		t.Errorf("latency histogram has %d samples, completed %d", res.Latency.Count, res.Completed)
	}
	if res.Switch.Cloned == 0 {
		t.Error("idle two-server cluster cloned nothing")
	}
	if res.Switch.FilterDrops == 0 {
		t.Error("switch filtered nothing despite cloning")
	}
	// Processed counts clones that were admitted and served, so it is
	// at least the completions.
	if res.ServerProcessed < res.Completed {
		t.Errorf("servers processed %d < %d completions", res.ServerProcessed, res.Completed)
	}
	if res.RedundantAtClient > res.Completed/20 {
		t.Errorf("%d redundant responses leaked to the client with filtering on", res.RedundantAtClient)
	}
	if res.ThroughputRPS <= 0 {
		t.Error("no throughput measured")
	}
}

// TestEmuCCloneDuplicates runs the C-Clone scheme: the client sends
// every request twice, the switch does no cloning or filtering, and the
// slower twins arrive at the client as redundant responses.
func TestEmuCCloneDuplicates(t *testing.T) {
	res, err := Emu().Run(emuScenario(WithScheme(simcluster.CClone)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switch.Cloned != 0 {
		t.Errorf("switch cloned %d requests under C-Clone", res.Switch.Cloned)
	}
	if res.Switch.FilterDrops != 0 {
		t.Errorf("switch filtered %d responses under C-Clone", res.Switch.FilterDrops)
	}
	if res.RedundantAtClient == 0 {
		t.Error("client saw no redundant responses despite duplicate sends")
	}
}

// TestEmuRateCap checks that simulator-scale offered loads are scaled
// down to the configured cap and the Result reports the real rate.
func TestEmuRateCap(t *testing.T) {
	res, err := Emu(EmuMaxRate(1000)).Run(emuScenario(WithOfferedLoad(2e6)))
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedRPS != 1000 {
		t.Errorf("offered RPS = %g, want capped 1000", res.OfferedRPS)
	}
}

// chaosTwoRackScenario is the shared chaos definition both backends
// must accept: a two-rack fabric with a mid-run server crash/recover
// and a loss window. The emu backend renders the fabric as delay lines
// and the faults as wall-clock windows; the simulator executes the
// same plan on virtual time.
func chaosTwoRackScenario() *Scenario {
	return New(
		WithScheme(simcluster.NetClone),
		WithRacks(
			topology.Rack{Servers: []int{2, 2}},
			topology.Rack{Servers: []int{2, 2}, Uplink: 200 * time.Microsecond},
		),
		WithClients(1),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(2000),
		WithWindow(0, 300*time.Millisecond),
		WithSeed(13),
		WithFaultInjections(
			faults.ServerCrash(0, 50*time.Millisecond, 150*time.Millisecond),
			faults.Loss(100*time.Millisecond, 200*time.Millisecond, 0.2),
		),
	)
}

// TestChaosScenarioRunsOnBothBackends pins the fault-parity contract:
// the one chaos definition above runs on Sim and Emu alike, and on
// both the chaos costs some completions without collapsing the run.
func TestChaosScenarioRunsOnBothBackends(t *testing.T) {
	for _, be := range []Backend{Sim(), Emu()} {
		t.Run(be.Name(), func(t *testing.T) {
			res, err := be.Run(chaosTwoRackScenario())
			if err != nil {
				t.Fatalf("chaos scenario rejected: %v", err)
			}
			if res.Backend != be.Name() {
				t.Errorf("result backend = %q, want %q", res.Backend, be.Name())
			}
			if res.Generated == 0 {
				t.Fatal("chaos run generated nothing")
			}
			if res.Completed < res.Generated/2 {
				t.Errorf("chaos collapsed the run: completed %d of %d",
					res.Completed, res.Generated)
			}
			if res.Completed > res.Generated {
				t.Errorf("completed %d exceeds generated %d", res.Completed, res.Generated)
			}
		})
	}
}

// TestEmuKVWorkload drives the Zipf key-value mix against the real
// store.
func TestEmuKVWorkload(t *testing.T) {
	res, err := Emu(EmuStoreObjects(4096)).Run(emuScenario(
		WithWorkload(nil),
		WithKVWorkload(workload.NewKVMix(0.9, 0.05, 4096, 0.99), kvstore.Redis()),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < res.Generated*9/10 {
		t.Errorf("KV mix completed %d of %d", res.Completed, res.Generated)
	}
}

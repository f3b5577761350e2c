package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// fabricBase returns options describing a well-formed scenario minus
// any server declaration.
func fabricBase() []Option {
	return []Option{
		WithScheme(simcluster.NetClone),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(1e6),
		WithWindow(50*time.Millisecond, 200*time.Millisecond),
		WithSeed(1),
	}
}

// twoRacks is a small valid fabric: two servers near the clients, two
// behind a slow spine port.
func twoRacks() Option {
	return WithRacks(
		topology.Rack{Servers: []int{16, 16}},
		topology.Rack{Servers: []int{16, 16}, Uplink: 2 * time.Microsecond},
	)
}

// TestWithRacksDeclaresWorkers: the fabric is the single source of
// truth for the server list — WithRacks fills the flat Workers field
// in rack order, so capacity estimation and fault targeting keep
// working unchanged.
func TestWithRacksDeclaresWorkers(t *testing.T) {
	sc := New(append(fabricBase(), twoRacks())...)
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid fabric rejected: %v", err)
	}
	cfg := sc.Config()
	if want := []int{16, 16, 16, 16}; len(cfg.Workers) != 4 || cfg.Workers[0] != want[0] {
		t.Fatalf("Workers not filled from the fabric: %v", cfg.Workers)
	}
	if cfg.Topology.NumRacks() != 2 {
		t.Fatalf("topology not threaded through: %+v", cfg.Topology)
	}
}

// TestPlacementOrderIndependent: WithPlacement composes with WithRacks
// in either order.
func TestPlacementOrderIndependent(t *testing.T) {
	racks := []topology.Rack{
		{Servers: []int{16, 16}},
		{Servers: []int{16, 16}},
	}
	a := New(append(fabricBase(), WithRacks(racks...), WithPlacement(1))...)
	b := New(append(fabricBase(), WithPlacement(1), WithRacks(racks...))...)
	for name, sc := range map[string]*Scenario{"racks-then-placement": a, "placement-then-racks": b} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := sc.Config().Topology.ClientRack(); got != 1 {
			t.Errorf("%s: client rack %d, want 1", name, got)
		}
	}
}

// TestLastFabricDeclarationWins: WithTopology/WithServers after
// WithRacks collapse the scenario back to a single rack.
func TestLastFabricDeclarationWins(t *testing.T) {
	sc := New(append(fabricBase(), twoRacks(), WithServers(6, 16))...)
	if err := sc.Validate(); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	cfg := sc.Config()
	if cfg.Topology != nil || len(cfg.Workers) != 6 {
		t.Fatalf("WithServers did not replace the fabric: topo=%+v workers=%v", cfg.Topology, cfg.Workers)
	}
}

// TestTopologyRejections covers the fabric-specific contradictions.
func TestTopologyRejections(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
		want string
	}{
		{
			name: "placement without racks",
			sc:   New(append(fabricBase(), WithServers(4, 8), WithPlacement(1))...),
			want: "no racks",
		},
		{
			name: "placement orphaned by a later single-rack declaration",
			sc:   New(append(fabricBase(), WithPlacement(1), WithServers(4, 8))...),
			want: "no racks",
		},
		{
			name: "fabric replaced under an explicit placement",
			sc:   New(append(fabricBase(), twoRacks(), WithPlacement(1), WithTopology(16, 16))...),
			want: "no racks",
		},
		{
			name: "placement out of range",
			sc:   New(append(fabricBase(), twoRacks(), WithPlacement(5))...),
			want: "racks 0..1",
		},
		{
			name: "laedge multi-rack fabric",
			sc:   New(append(fabricBase(), twoRacks(), WithScheme(simcluster.LAEDGE))...),
			want: "not modelled for LAEDGE",
		},
		{
			name: "empty remote rack",
			sc: New(append(fabricBase(), WithRacks(
				topology.Rack{Servers: []int{16, 16}},
				topology.Rack{},
			))...),
			want: "not the client rack",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestLaedgeFabricMessageUniform: the two-ToR deployment and a fabric
// with servers on both racks reject LAEDGE with the same topology
// message, and the simulator run of the same config returns it word
// for word: there is one validator.
func TestLaedgeFabricMessageUniform(t *testing.T) {
	twoToR := New(append(fabricBase(), WithScheme(simcluster.LAEDGE),
		WithRacks(topology.Rack{}, topology.HomRack(4, 8, 0)))...)
	viaRacks := New(append(fabricBase(), twoRacks(), WithScheme(simcluster.LAEDGE))...)

	errTwoToR := twoToR.Validate()
	errRacks := viaRacks.Validate()
	if errTwoToR == nil || errRacks == nil {
		t.Fatalf("LAEDGE fabric accepted: two-ToR=%v racks=%v", errTwoToR, errRacks)
	}
	if errTwoToR.Error() != errRacks.Error() {
		t.Errorf("scenario surface not uniform:\ntwo-ToR: %v\nracks:   %v", errTwoToR, errRacks)
	}
	if !strings.Contains(errRacks.Error(), "not modelled for LAEDGE") {
		t.Errorf("LAEDGE fabric rejected for the wrong reason: %v", errRacks)
	}
	if _, errSim := simcluster.Run(viaRacks.Config()); errSim == nil || errSim.Error() != errRacks.Error() {
		t.Errorf("simulator and scenario disagree:\nscenario:  %v\nsimcluster: %v", errRacks, errSim)
	}
}

// TestEmuFabricTopology: multi-rack fabrics run on the emulation —
// every remote rack across delay lines in the switch and its servers —
// while explicit client placement (which would re-home those delays)
// stays sim-only with an actionable error.
func TestEmuFabricTopology(t *testing.T) {
	base := New(
		WithScheme(simcluster.NetClone),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(100),
		WithWindow(0, 10*time.Millisecond),
	)
	be := Emu()

	_, err := be.Run(base.With(
		WithRacks(topology.Rack{Servers: []int{2, 2}}), WithPlacement(0)))
	if err == nil {
		t.Fatal("explicitly placed scenario accepted by the Emu backend")
	}
	if !errors.Is(err, ErrSimOnly) {
		t.Errorf("error %v does not wrap ErrSimOnly", err)
	}
	if !strings.Contains(err.Error(), "explicit client placement (WithPlacement)") {
		t.Errorf("error %q does not name WithPlacement", err)
	}

	// A one-rack WithRacks fabric with default placement is the plain
	// single-rack shape; a two-rack fabric runs through delay lines.
	for _, tc := range []struct {
		name string
		sc   *Scenario
	}{
		{"one-rack fabric", base.With(WithRacks(topology.Rack{Servers: []int{2, 2}}))},
		{"two-rack fabric", base.With(twoRacks())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := be.Run(tc.sc)
			if err != nil {
				t.Fatalf("fabric rejected by the Emu backend: %v", err)
			}
			if res.Completed == 0 {
				t.Error("fabric run completed nothing")
			}
		})
	}
}

package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"netclone/internal/faults"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// TestSimBackendMatchesDirectRun asserts the compatibility contract: the
// Sim backend is a transparent wrapper — same scenario, same seed, same
// Result bits as calling the simulator directly.
func TestSimBackendMatchesDirectRun(t *testing.T) {
	sc := New(
		WithScheme(simcluster.NetClone),
		WithServers(2, 8),
		WithWorkload(workload.WithJitter(workload.Exp(25), 0.01)),
		WithOfferedLoad(1e5),
		WithWindow(time.Millisecond, 5*time.Millisecond),
		WithSeed(3),
	)
	viaBackend, err := Sim().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := simcluster.Run(sc.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaBackend.Result, direct) {
		t.Error("Sim backend result diverges from direct simcluster.Run")
	}
	if viaBackend.Backend != "sim" {
		t.Errorf("backend name = %q, want sim", viaBackend.Backend)
	}
	if viaBackend.ServerProcessed != direct.Switch.Responses {
		t.Errorf("ServerProcessed = %d, want switch responses %d",
			viaBackend.ServerProcessed, direct.Switch.Responses)
	}
}

func TestSimBackendValidates(t *testing.T) {
	if _, err := Sim().Run(New()); err == nil {
		t.Fatal("empty scenario accepted by Sim backend")
	} else if !strings.HasPrefix(err.Error(), "scenario: ") {
		t.Errorf("validation error %q missing uniform prefix", err)
	}
}

// TestSwitchConfigMapping pins the scheme-to-dataplane mapping shared by
// the Emu backend and the switch role of the netclone-emu binary.
func TestSwitchConfigMapping(t *testing.T) {
	cases := []struct {
		scheme                        simcluster.Scheme
		cloning, filtering, racksched bool
	}{
		{simcluster.Baseline, false, false, false},
		{simcluster.CClone, false, false, false},
		{simcluster.NetClone, true, true, false},
		{simcluster.NetCloneNoFilter, true, false, false},
		{simcluster.NetCloneRackSched, true, true, true},
	}
	for _, tc := range cases {
		dcfg, err := SwitchConfig(tc.scheme, 2, 1<<10, 8)
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		if dcfg.EnableCloning != tc.cloning || dcfg.EnableFiltering != tc.filtering || dcfg.RackSched != tc.racksched {
			t.Errorf("%s mapped to cloning=%v filtering=%v racksched=%v",
				tc.scheme, dcfg.EnableCloning, dcfg.EnableFiltering, dcfg.RackSched)
		}
		if dcfg.FilterTables != 2 || dcfg.FilterSlots != 1<<10 || dcfg.MaxServers != 8 {
			t.Errorf("%s lost sizing: %+v", tc.scheme, dcfg)
		}
	}
	if _, err := SwitchConfig(simcluster.LAEDGE, 2, 1<<10, 8); err == nil {
		t.Error("LAEDGE accepted as a switch program")
	}
}

// TestEmuCapabilityMatrix is the sim-vs-emu capability table as a
// test: every still-rejected feature fails fast (before any socket is
// opened) with an error that wraps ErrSimOnly, names the setter that
// enabled it, and suggests Sim(); every emu-supported feature —
// the paper's two-ToR deployment, loss windows, server crash/recover —
// runs end to end.
func TestEmuCapabilityMatrix(t *testing.T) {
	base := New(
		WithScheme(simcluster.NetClone),
		WithServers(2, 2),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(100),
		WithWindow(0, 10*time.Millisecond),
	)
	rejected := []struct {
		name string
		sc   *Scenario
		// want names the feature; setter is the constructor or option
		// the message must point at so the fix is obvious.
		want, setter string
	}{
		{"LAEDGE", base.With(WithScheme(simcluster.LAEDGE)), "coordinator", "Sim()"},
		{"switch failure", base.With(WithFaultInjections(
			faults.SwitchOutage(time.Millisecond, 2*time.Millisecond))),
			"switch-outage", "faults.SwitchOutage"},
		// The emu numbers clients uint16(i+1): client 65,537 would alias
		// client 1.
		{"65537 clients", base.With(WithClients(65537)), "16-bit ClientID", "WithClients"},
		{"server slowdown", base.With(WithFaultInjections(
			faults.ServerSlowdown(0, time.Millisecond, 2*time.Millisecond, 4, 0))),
			"server-slowdown", "faults.ServerSlowdown"},
		{"timeline", base.With(WithTimeline(time.Millisecond)), "timeline", "WithTimeline"},
		{"tracing", base.With(WithTrace(1, 0)), "tracing", "WithTrace"},
		{"no clone guard", base.With(WithoutCloneDropGuard()), "guard", "WithoutCloneDropGuard"},
		{"single ordering", base.With(WithSingleOrderingGroups()), "ordering", "WithSingleOrderingGroups"},
	}
	be := Emu()
	for _, tc := range rejected {
		t.Run("reject/"+tc.name, func(t *testing.T) {
			_, err := be.Run(tc.sc)
			if err == nil {
				t.Fatal("sim-only feature accepted by Emu backend")
			}
			if !errors.Is(err, ErrSimOnly) {
				t.Errorf("error %v does not wrap ErrSimOnly", err)
			}
			for _, want := range []string{tc.want, tc.setter, "Sim()"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}

	accepted := []struct {
		name string
		sc   *Scenario
	}{
		{"loss window", base.With(WithLoss(0.01))},
		{"loss ramp", base.With(WithFaultInjections(
			faults.LossRamp(0, 5*time.Millisecond, 0.05, 0)))},
		{"server crash", base.With(WithFaults(faults.New(
			faults.ServerCrash(0, time.Millisecond, 2*time.Millisecond))))},
		{"two-ToR fabric", base.With(WithRacks(topology.Rack{}, topology.Rack{Servers: []int{2, 2}}))},
	}
	for _, tc := range accepted {
		t.Run("accept/"+tc.name, func(t *testing.T) {
			if _, err := be.Run(tc.sc); err != nil {
				t.Fatalf("emu-expressible feature rejected: %v", err)
			}
		})
	}
}

// TestGroupFieldAddressesAtMost256Servers: n servers form n(n-1)
// groups and the header's Group field is 16 bits, so every scheme whose
// switch reads Group rejects a 257th server, on both backends, naming
// the option to shrink. 256 servers stay accepted, and so does LÆDGE,
// whose coordinator picks servers without reading Group.
func TestGroupFieldAddressesAtMost256Servers(t *testing.T) {
	base := New(
		WithServers(256, 1),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(100),
		WithWindow(0, time.Millisecond),
	)
	schemes := []simcluster.Scheme{
		simcluster.Baseline, simcluster.CClone, simcluster.NetClone,
		simcluster.NetCloneRackSched, simcluster.NetCloneNoFilter,
		simcluster.NetCloneSuppress, simcluster.NetCloneAdaptive,
	}
	for _, s := range schemes {
		sc := base.With(WithScheme(s))
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: 256 servers rejected: %v", s, err)
		}
		for name, be := range map[string]Backend{"sim": Sim(), "emu": Emu()} {
			_, err := be.Run(sc.With(WithServers(257, 1)))
			if err == nil || !strings.Contains(err.Error(), "WithServers") {
				t.Errorf("%s on %s: 257 servers gave %v, want a rejection naming WithServers", s, name, err)
			}
		}
	}
	if err := base.With(WithScheme(simcluster.LAEDGE), WithServers(257, 1)).Validate(); err != nil {
		t.Errorf("LAEDGE: 257 servers rejected: %v", err)
	}
}

package topology

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		c    Cluster
		want string // substring of the error, "" = valid
	}{
		{"nil spec", nil, Cluster{}, "no racks"},
		{"empty spec", New(), Cluster{}, "no racks"},
		{"one server total", New(Rack{Servers: []int{8}}), Cluster{}, "at least two servers"},
		{"zero threads", New(Rack{Servers: []int{8, 0}}), Cluster{}, "worker threads"},
		{"negative uplink", New(Rack{Servers: []int{8, 8}, Uplink: -time.Microsecond}), Cluster{}, "uplink"},
		{"empty non-client rack", New(Rack{Servers: []int{8, 8}}, Rack{}), Cluster{}, "not the client rack"},
		{"placement out of range", New(Rack{Servers: []int{8, 8}}).WithClientRack(3), Cluster{}, "racks 0..0"},
		{"laedge multi-rack", New(Rack{Servers: []int{8}}, Rack{Servers: []int{8}}), Cluster{Coordinators: 1}, "not modelled for LAEDGE"},
		{"laedge single-rack ok", New(Rack{Servers: []int{8, 8}}), Cluster{Coordinators: 2}, ""},
		{"empty client rack ok", New(Rack{}, Rack{Servers: []int{8, 8}}), Cluster{}, ""},
		{"placed client rack ok", New(Rack{Servers: []int{8}}, Rack{Servers: []int{8}}).WithClientRack(1), Cluster{}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(tc.c)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCompileSingleRack(t *testing.T) {
	c := SingleRack([]int{16, 16, 8}).Compile()
	if c.Racks != 1 || c.SwitchIDs[0] != 0 {
		t.Fatalf("single-rack fabric must keep switch ID 0 (legacy unstamped mode): %+v", c)
	}
	if !reflect.DeepEqual(c.Workers, []int{16, 16, 8}) {
		t.Fatalf("workers: %v", c.Workers)
	}
	if !reflect.DeepEqual(c.ServerRack, []int{0, 0, 0}) {
		t.Fatalf("server racks: %v", c.ServerRack)
	}
	if c.InterDelayNS[0][0] != 0 {
		t.Fatalf("intra-rack delay must be 0, got %d", c.InterDelayNS[0][0])
	}
}

func TestCompileLeafSpine(t *testing.T) {
	spec := New(
		Rack{Servers: []int{16, 16}},                              // rack 0: default uplink
		Rack{Servers: []int{8}, Uplink: 3 * time.Microsecond},     // rack 1: slow port
		Rack{Servers: []int{8, 8}, Uplink: 500 * time.Nanosecond}, // rack 2: fast port
	).WithClientRack(0)
	if err := spec.Validate(Cluster{}); err != nil {
		t.Fatal(err)
	}
	c := spec.Compile()
	if !reflect.DeepEqual(c.Workers, []int{16, 16, 8, 8, 8}) {
		t.Fatalf("workers: %v", c.Workers)
	}
	if !reflect.DeepEqual(c.ServerRack, []int{0, 0, 1, 2, 2}) {
		t.Fatalf("server racks: %v", c.ServerRack)
	}
	if !reflect.DeepEqual(c.RackFirstSID, []int{0, 2, 3, 5}) {
		t.Fatalf("rack sid ranges: %v", c.RackFirstSID)
	}
	if !reflect.DeepEqual(c.SwitchIDs, []uint16{1, 2, 3}) {
		t.Fatalf("switch IDs: %v", c.SwitchIDs)
	}
	// Per-link latency: crossing costs the sum of both uplinks.
	if got := c.InterDelayNS[0][1]; got != 1000+3000 {
		t.Errorf("rack0->rack1 delay %d, want 4000", got)
	}
	if got := c.InterDelayNS[1][2]; got != 3000+500 {
		t.Errorf("rack1->rack2 delay %d, want 3500", got)
	}
	if c.InterDelayNS[0][2] != c.InterDelayNS[2][0] {
		t.Errorf("fabric delay not symmetric: %d vs %d", c.InterDelayNS[0][2], c.InterDelayNS[2][0])
	}
}

// TestCompileTwoToR pins the paper's two-ToR deployment (§3.7): an
// empty client rack in front of one rack holding every server, default
// uplinks summing to 2000 ns one way, and both ToRs stamped.
func TestCompileTwoToR(t *testing.T) {
	c := New(Rack{}, Rack{Servers: []int{16, 16}}).Compile()
	if got := c.InterDelayNS[0][1]; got != 2000 {
		t.Errorf("compiled inter-rack delay %d, want 2000", got)
	}
	if c.SwitchIDs[0] != 1 || c.SwitchIDs[1] != 2 {
		t.Errorf("switch IDs %v, want [1 2]", c.SwitchIDs)
	}
	if c.ClientRack != 0 || len(c.Workers) != 2 || !reflect.DeepEqual(c.ServerRack, []int{1, 1}) {
		t.Errorf("shape %+v", c)
	}
}

// TestSpecImmutable pins the immutability contract: neither the
// caller's input slices nor the accessors' returned copies alias the
// spec's internal state.
func TestSpecImmutable(t *testing.T) {
	servers := []int{16, 16}
	spec := New(Rack{Servers: servers})
	servers[0] = 99
	if spec.FlatWorkers()[0] != 16 {
		t.Fatal("New aliased the caller's server slice")
	}
	spec.Racks()[0].Servers[0] = 99
	spec.FlatWorkers()[0] = 99
	if spec.Racks()[0].Servers[0] != 16 || spec.FlatWorkers()[0] != 16 {
		t.Fatal("accessors leaked mutable references")
	}
	placed := spec.WithClientRack(0)
	if spec.PlacementExplicit() {
		t.Fatal("WithClientRack mutated its receiver")
	}
	if !placed.PlacementExplicit() || placed.NumRacks() != 1 {
		t.Fatalf("derived spec wrong: %+v", placed)
	}
}

// TestCompilePure pins that Compile is a pure function: repeated
// compilations are deeply equal and mutating one result cannot reach
// the next.
func TestCompilePure(t *testing.T) {
	spec := New(Rack{Servers: []int{16}}, Rack{Servers: []int{8, 8}, Uplink: 2 * time.Microsecond})
	a, b := spec.Compile(), spec.Compile()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Compile not deterministic:\n%+v\n%+v", a, b)
	}
	a.Workers[0] = 99
	a.InterDelayNS[0][1] = 99
	if c := spec.Compile(); !reflect.DeepEqual(b, c) {
		t.Fatal("mutating a compiled result reached the spec")
	}
}

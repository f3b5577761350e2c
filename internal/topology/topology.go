// Package topology is the declarative fabric-description layer of the
// scenario API: a Spec describes a leaf–spine fabric — N racks of
// heterogeneous worker servers, one ToR switch per rack, an
// aggregation/spine tier with per-link latency, and explicit client
// placement — and Compile turns a validated Spec into the flat routing
// table the simulator consumes (§3.7 "Multi-rack deployment",
// generalized from the original two-ToR special case to N racks).
//
// The package is a pure description layer, the fabric analogue of
// internal/faults: it knows rack shapes, link latencies, and
// contradiction rules, but nothing about the cluster that executes a
// topology. internal/simcluster compiles a validated Spec and builds
// one dataplane.Switch per rack from the result; internal/scenario
// exposes the Spec as scenario.WithRacks / scenario.WithPlacement.
//
// The switch-ID ownership rule (dataplane/switch.go, §3.7) is what
// makes an N-rack fabric safe: only the clients' ToR performs NetClone
// processing and stamps packets with its switch ID; every other ToR
// runs the same program, sees a foreign ID, and falls through to plain
// L3 forwarding. Compile assigns those IDs — 0 for a single-rack
// fabric (the legacy unstamped mode) and rack+1 otherwise.
package topology

import (
	"fmt"
	"time"
)

// DefaultUplink is the ToR<->spine one-way latency used for racks that
// do not declare their own: crossing between two default racks costs
// 2000 ns one way.
const DefaultUplink = 1000 * time.Nanosecond

// Rack is one leaf of the fabric: a ToR switch and the worker servers
// behind it. A rack may be empty (servers only elsewhere) when it is
// the client rack — the paper's two-ToR deployment (§3.7) is an empty
// client rack in front of one rack holding every server.
type Rack struct {
	// Servers holds the worker-thread count of each server homed on
	// this rack; its length is the rack's server count.
	Servers []int

	// Uplink is the one-way latency of this rack's ToR<->spine link.
	// Zero means DefaultUplink. Crossing the fabric from rack a to
	// rack b costs Uplink(a) + Uplink(b) one way — heterogeneous
	// uplinks give per-link latency, e.g. a far rack behind a slow
	// spine port.
	Uplink time.Duration
}

// HomRack returns a rack of n homogeneous servers with threads worker
// threads each behind an uplink of the given latency (0 means
// DefaultUplink) — shorthand for the common uniform leaf.
func HomRack(n, threads int, uplink time.Duration) Rack {
	servers := make([]int, n)
	for i := range servers {
		servers[i] = threads
	}
	return Rack{Servers: servers, Uplink: uplink}
}

// Spec is a declarative, immutable fabric description. Build it with
// New and derive placement variants with WithClientRack; Spec values
// never change after construction, so one spec can safely fan out
// across concurrently running scenario variants.
type Spec struct {
	racks       []Rack
	clientRack  int
	explicitPin bool // WithClientRack was called (explicit placement)
}

// New builds a spec from racks, with clients placed on rack 0. The
// rack contents are copied, so later mutation of the caller's slices
// cannot reach into the spec.
func New(racks ...Rack) *Spec {
	s := &Spec{racks: make([]Rack, len(racks))}
	for i, r := range racks {
		s.racks[i] = Rack{
			Servers: append([]int(nil), r.Servers...),
			Uplink:  r.Uplink,
		}
	}
	return s
}

// SingleRack returns the canonical one-rack spec over the given worker
// list — the fabric every topology-less run executes on. It compiles
// to the exact legacy single-rack cluster (switch ID 0, no fabric
// hops).
func SingleRack(workers []int) *Spec {
	return New(Rack{Servers: workers})
}

// WithClientRack returns a copy of the spec with the clients (and, for
// schemes that have one, the coordinator tier) placed on the given
// rack. The receiver — which may be nil: placement can be declared
// before the racks — is not modified.
func (s *Spec) WithClientRack(rack int) *Spec {
	c := &Spec{clientRack: rack, explicitPin: true}
	if s != nil {
		c.racks = s.racks
	}
	return c
}

// NumRacks returns the number of racks.
func (s *Spec) NumRacks() int {
	if s == nil {
		return 0
	}
	return len(s.racks)
}

// ClientRack returns the rack the clients are placed on (default 0).
func (s *Spec) ClientRack() int {
	if s == nil {
		return 0
	}
	return s.clientRack
}

// PlacementExplicit reports whether WithClientRack was used, as
// opposed to the default rack-0 placement — backends without a fabric
// model reject explicit placement rather than silently ignoring it.
func (s *Spec) PlacementExplicit() bool { return s != nil && s.explicitPin }

// Racks returns a deep copy of the rack list.
func (s *Spec) Racks() []Rack {
	if s == nil {
		return nil
	}
	out := make([]Rack, len(s.racks))
	for i, r := range s.racks {
		out[i] = Rack{Servers: append([]int(nil), r.Servers...), Uplink: r.Uplink}
	}
	return out
}

// FlatWorkers returns the fabric's global server list: every rack's
// servers concatenated in rack order. Global server ID i is the i-th
// entry — the ID space the dataplane address and group tables use.
func (s *Spec) FlatWorkers() []int {
	if s == nil {
		return nil
	}
	var out []int
	for _, r := range s.racks {
		out = append(out, r.Servers...)
	}
	return out
}

// Cluster describes the scheme context a spec will run under, for the
// contradiction checks that depend on it. Coordinators is 0 for
// schemes without a coordinator tier (everything but LAEDGE).
type Cluster struct {
	Coordinators int
}

// Validate checks the spec for contradictions and missing pieces and
// returns the first problem as an actionable error. The simulator's
// config validation (and so Scenario.Validate) calls it.
func (s *Spec) Validate(c Cluster) error {
	if s.NumRacks() == 0 {
		return fmt.Errorf("topology: no racks declared; add WithRacks(racks...)")
	}
	total := 0
	for ri, r := range s.racks {
		if r.Uplink < 0 {
			return fmt.Errorf("topology: rack %d uplink is %v, need >= 0", ri, r.Uplink)
		}
		if len(r.Servers) == 0 && ri != s.clientRack {
			return fmt.Errorf("topology: rack %d has no servers and is not the client rack; give it servers or remove it", ri)
		}
		for si, w := range r.Servers {
			if w < 1 {
				return fmt.Errorf("topology: rack %d server %d has %d worker threads, need >= 1", ri, si, w)
			}
		}
		total += len(r.Servers)
	}
	if total < 2 {
		return fmt.Errorf("topology: cloning needs at least two servers across the fabric, got %d", total)
	}
	if s.clientRack < 0 || s.clientRack >= len(s.racks) {
		return fmt.Errorf("topology: client placement on rack %d, fabric has racks 0..%d (WithPlacement)", s.clientRack, len(s.racks)-1)
	}
	if len(s.racks) > 1 && c.Coordinators > 0 {
		return fmt.Errorf("topology: multi-rack deployment is not modelled for LAEDGE — the coordinator tier is rack-local; drop WithRacks or pick another scheme")
	}
	return nil
}

// Compiled is the flat routing table the simulator consumes: the
// global server list, each server's home rack, the per-rack switch
// IDs, and the one-way fabric delay between every rack pair. It is a
// pure function of the Spec (Compile allocates fresh slices on every
// call), so concurrent runs can share one Spec and compile privately.
type Compiled struct {
	// Racks is the rack count.
	Racks int

	// Workers is the global server list (FlatWorkers order).
	Workers []int

	// ServerRack maps global server ID -> home rack.
	ServerRack []int

	// RackFirstSID holds each rack's first global server ID; rack r
	// owns IDs [RackFirstSID[r], RackFirstSID[r+1]) with a final
	// sentinel entry of len(Workers) — the rollup ranges for per-rack
	// counters.
	RackFirstSID []int

	// SwitchIDs holds each rack ToR's switch ID: 0 for a single-rack
	// fabric (packets stay unstamped, the legacy mode), rack+1
	// otherwise, so the client ToR's stamp never matches another ToR.
	SwitchIDs []uint16

	// ClientRack is the rack hosting the clients (and coordinator
	// tier, when the scheme has one).
	ClientRack int

	// InterDelayNS[a][b] is the one-way fabric delay from rack a's ToR
	// to rack b's ToR — the sum of both uplinks — and 0 on the
	// diagonal (no fabric hop inside a rack).
	InterDelayNS [][]int64
}

// Compile flattens a validated spec into its routing table. Call
// Validate first; Compile trusts the spec's shape.
func (s *Spec) Compile() *Compiled {
	n := len(s.racks)
	c := &Compiled{
		Racks:        n,
		Workers:      s.FlatWorkers(),
		RackFirstSID: make([]int, n+1),
		SwitchIDs:    make([]uint16, n),
		ClientRack:   s.clientRack,
		InterDelayNS: make([][]int64, n),
	}
	c.ServerRack = make([]int, 0, len(c.Workers))
	sid := 0
	for ri, r := range s.racks {
		c.RackFirstSID[ri] = sid
		for range r.Servers {
			c.ServerRack = append(c.ServerRack, ri)
			sid++
		}
		if n > 1 {
			c.SwitchIDs[ri] = uint16(ri + 1)
		}
	}
	c.RackFirstSID[n] = sid
	up := make([]int64, n)
	for ri, r := range s.racks {
		up[ri] = int64(r.Uplink)
		if r.Uplink == 0 {
			up[ri] = int64(DefaultUplink)
		}
	}
	for a := 0; a < n; a++ {
		c.InterDelayNS[a] = make([]int64, n)
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			c.InterDelayNS[a][b] = up[a] + up[b]
		}
	}
	return c
}

// Package simcluster assembles the simulated testbed that reproduces the
// paper's evaluation cluster (§5.1.1): open-loop clients, a NetClone ToR
// switch, worker servers with dispatcher/worker threads, and — for the
// LÆDGE baseline — a CPU-bound cloning coordinator. It is built on the
// deterministic event engine in internal/simnet and the switch data plane
// in internal/dataplane.
package simcluster

import (
	"errors"
	"fmt"
	"slices"

	"netclone/internal/congestion"
	"netclone/internal/dataplane"
	"netclone/internal/faults"
	"netclone/internal/kvstore"
	"netclone/internal/stats"
	"netclone/internal/topology"
	"netclone/internal/trace"
	"netclone/internal/workload"
)

// Scheme selects the request-dispatching scheme under test (§5.1.3).
type Scheme int

// Schemes compared in the paper.
const (
	// Baseline sends requests to workers uniformly at random, no cloning.
	Baseline Scheme = iota
	// CClone is client-based static cloning: every request is duplicated
	// to two random workers and the client takes the faster response.
	CClone
	// LAEDGE is coordinator-based dynamic cloning (Primorac et al.,
	// NSDI'21): a CPU-bound coordinator clones when >= 2 servers are
	// idle and queues requests when none are.
	LAEDGE
	// NetClone is in-switch dynamic cloning with response filtering (the
	// paper's system).
	NetClone
	// NetCloneRackSched is NetClone integrated with the RackSched
	// in-switch JSQ scheduler (§3.7).
	NetCloneRackSched
	// NetCloneNoFilter is NetClone with response filtering disabled (the
	// Fig 15 ablation).
	NetCloneNoFilter
	// NetCloneSuppress is NetClone with near-source clone suppression:
	// the switch skips the clone when the egress port it would leave
	// through — or the requester's return port — sits past the
	// congestion model's marking threshold (SFC-style in-network
	// suppression). Identical to NetClone when no congestion model is
	// configured.
	NetCloneSuppress
	// NetCloneAdaptive is NetClone with an adaptive clone budget: a
	// deterministic token bucket refilled at the offered rate scaled by
	// the observed egress-port headroom (Kimad-style bandwidth-aware
	// redundancy), so cloning throttles itself as queues fill. Identical
	// to NetClone when no congestion model is configured.
	NetCloneAdaptive
)

// String returns the scheme label used in experiment output.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case CClone:
		return "C-Clone"
	case LAEDGE:
		return "LAEDGE"
	case NetClone:
		return "NetClone"
	case NetCloneRackSched:
		return "NetClone+RackSched"
	case NetCloneNoFilter:
		return "NetClone-w/o-Filtering"
	case NetCloneSuppress:
		return "NetClone+Suppress"
	case NetCloneAdaptive:
		return "NetClone+Adaptive"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Calibration holds the latency cost constants of the simulated testbed.
// Values are nanoseconds; defaults are chosen so absolute latencies land
// near the paper's testbed (see EXPERIMENTS.md §Calibration).
type Calibration struct {
	// LinkDelayNS is one network hop (propagation + serialization) between
	// any host NIC and the ToR switch.
	LinkDelayNS int64
	// SwitchDelayNS is one pass through the switch pipeline ("hundreds of
	// nanoseconds", §2.3).
	SwitchDelayNS int64
	// RecircDelayNS is the extra loopback-port latency a clone pays before
	// re-entering the ingress pipeline (§3.4).
	RecircDelayNS int64
	// ClientPktCostNS is the client CPU cost to send or receive one packet
	// (VMA kernel-bypass path, §4.2). Charged per packet on the client's
	// TX and RX threads; this is what makes C-Clone's redundant responses
	// hurt (§2.2).
	ClientPktCostNS int64
	// DispatcherCostNS is the server dispatcher's per-request cost before
	// a request reaches the worker queue (§4.2).
	DispatcherCostNS int64
	// CoordPktCostNS is the LÆDGE coordinator's CPU cost per packet
	// handled; it is the coordinator's scalability bottleneck (§2.2).
	CoordPktCostNS int64
	// DedupMissCostNS is the extra client CPU cost to process a response
	// whose request already completed (the slow dedup-miss path: a failed
	// pending-table lookup and cleanup). It is why unfiltered redundant
	// responses "reduce the performance gain by causing unnecessary
	// packet processing in the client" (§3.5, Fig 15).
	DedupMissCostNS int64
}

// DefaultCalibration returns the constants documented in DESIGN.md §5.
func DefaultCalibration() Calibration {
	return Calibration{
		LinkDelayNS:      1000,
		SwitchDelayNS:    400,
		RecircDelayNS:    400,
		ClientPktCostNS:  600,
		DispatcherCostNS: 150,
		CoordPktCostNS:   400,
		DedupMissCostNS:  200,
	}
}

// Config describes one simulated experiment point.
type Config struct {
	Scheme Scheme

	// NumClients is the number of open-loop client machines (the paper
	// uses 2). The offered load is split evenly across them.
	NumClients int

	// Workers holds the worker-thread count of each worker server; its
	// length is the number of servers. E.g. 6 homogeneous servers with 16
	// threads: [16,16,16,16,16,16]; Fig 10 heterogeneous: 3x15 + 3x8.
	Workers []int

	// Service is the synthetic service-time distribution (§5.1.2). Used
	// when Mix is nil.
	Service workload.Dist

	// Mix, when non-nil, switches to the key-value workload (§5.5): ops
	// are drawn from the mix and service times from Cost.
	Mix  *workload.KVMix
	Cost kvstore.CostModel

	// OfferedRPS is the aggregate open-loop request rate.
	OfferedRPS float64

	// WarmupNS and DurationNS bound the measurement window: requests
	// completing in [WarmupNS, WarmupNS+DurationNS) are recorded.
	WarmupNS   int64
	DurationNS int64

	// Seed makes the run reproducible.
	Seed uint64

	// Cal holds the testbed latency constants; zero value means defaults.
	Cal Calibration

	// FilterTables and FilterSlots size the switch filter tables; zero
	// means the prototype defaults (2 tables, 2^17 slots).
	FilterTables int
	FilterSlots  int

	// TimelineBinNS, when positive, records completed requests into
	// per-bin counts over the whole run (Fig 16's throughput-vs-time).
	TimelineBinNS int64

	// DisableServerCloneDrop removes the server-side stale-state guard
	// (§3.4: drop cloned requests that find a non-empty queue). Ablation
	// only — quantifies how much the guard protects high-load latency.
	DisableServerCloneDrop bool

	// SingleOrderingGroups restricts clients to groups whose first
	// candidate has the lower server ID, ablating the paper's "multiply
	// by two to sustain the randomness of server selection" design
	// (§3.3): non-cloned requests then herd onto low-ID servers.
	SingleOrderingGroups bool

	// NumCoordinators scales out the LÆDGE coordinator tier (§2.2 "It is
	// possible to use multiple coordinators to scale out. However, this
	// causes burdensome costs..."). Workers are partitioned round-robin
	// across coordinators and each client request is routed to a uniform
	// random coordinator. 0 or 1 means a single coordinator. Only
	// meaningful for Scheme == LAEDGE.
	NumCoordinators int

	// Faults, when non-nil and non-empty, is the declarative fault plan
	// executed during the run (internal/faults): typed, time-scheduled
	// injections — server crashes, stragglers, time-varying loss and
	// switch outages (the §3.6 dropped messages and the Fig 16 switch
	// outage among them).
	Faults *faults.Plan

	// Topology, when non-nil, is the declarative leaf–spine fabric the
	// cluster is built from (internal/topology): N racks of servers,
	// one ToR per rack, per-link spine latency, and explicit client
	// placement. Its flattened server list must agree with Workers (an
	// empty Workers is filled from it). The clients' ToR performs all
	// NetClone processing and stamps packets; every other ToR runs the
	// same program but passes stamped packets through untouched — the
	// switch-ID ownership rule (§3.7). Nil means the single-rack fabric
	// over Workers.
	Topology *topology.Spec

	// Congestion, when non-nil, is the declarative congestion model
	// (internal/congestion): finite FIFO queues with configurable
	// service rates at every ToR and spine egress port, ECN-style
	// marking past a threshold, and tail-drop on overflow. Marks ride
	// the wire header back to clients; the NetCloneSuppress and
	// NetCloneAdaptive schemes react to them. Nil — the default — means
	// infinite link capacity: the exact pre-subsystem event sequence,
	// byte-identical results.
	Congestion *congestion.Spec

	// TraceRate enables the flight recorder (internal/trace): every
	// TraceRate-th request per client (by client sequence number — a
	// deterministic decision, no RNG draw) has its full lifecycle
	// recorded into Result.Trace, and engine telemetry is
	// snapshotted into Result.Telemetry. 1 traces everything; 0 — the
	// default — disables tracing entirely: the recorder pointer stays
	// nil, the hot path pays one predictable branch per site, and the
	// event order is bit-identical either way (tracing is strictly
	// observational; see DESIGN.md §11).
	TraceRate int

	// TraceCap is the flight recorder's ring capacity in
	// records; when the ring fills, the oldest records are overwritten
	// (head-drop) and Trace.Dropped counts the losses. 0 means
	// trace.DefaultCap. Only meaningful with TraceRate > 0.
	TraceCap int
}

// Result is the outcome of one experiment point.
type Result struct {
	Scheme     Scheme
	OfferedRPS float64

	// ThroughputRPS is completed requests in the measurement window
	// divided by the window length.
	ThroughputRPS float64

	// Latency summarizes request latencies (client request creation to
	// client RX completion of the first response) within the window.
	Latency stats.Summary

	// Hist is the full latency histogram for callers that need more than
	// the summary (e.g. merging repeat runs).
	Hist *stats.Histogram

	// Switch is the data-plane counter snapshot (zero for LÆDGE).
	Switch dataplane.Stats

	// Generated and Completed count requests over the whole run.
	Generated int64
	Completed int64

	// CloneDropsAtServer counts NetClone clones dropped because the
	// actual server queue was non-empty (§3.4 server-side mechanism).
	CloneDropsAtServer int64

	// RedundantAtClient counts responses the client discarded as
	// duplicates (C-Clone dedup, or unfiltered slower responses).
	RedundantAtClient int64

	// EmptyQueueFrac is the fraction of responses sent with an empty
	// request queue (Fig 13a's state-signal confidence metric).
	EmptyQueueFrac float64

	// CoordQueueMax is the LÆDGE coordinator's maximum internal queue
	// length (0 for other schemes).
	CoordQueueMax int

	// LostPackets counts link traversals dropped by the loss model.
	LostPackets int64

	// Racks is the per-rack counter rollup of a multi-rack fabric, in
	// topology order: each rack's ToR snapshot plus the clone drops of
	// the servers homed there. A remote rack's PassL3 count shows the
	// switch-ID rule kept it from NetClone processing. Nil for
	// single-rack runs.
	Racks []RackStats

	// Timeline holds per-bin completion counts when requested.
	Timeline *stats.TimeSeries

	// EngineEvents is the number of discrete events the simulation
	// engine executed for this run — the numerator of the events/sec
	// throughput metric tracked by the benchmark pipeline (BENCH_*.json).
	EngineEvents int64

	// Faults summarizes fault-plan execution — the per-window
	// availability timeline, fault-induced drops, and the
	// degraded-window latency view. Nil unless a non-empty fault plan
	// was active, so fault-free Results stay byte-identical to the
	// pre-subsystem output.
	Faults *FaultSummary

	// Congestion summarizes the congestion model's execution: per-port
	// occupancy/drop/mark statistics, per-rack rollups (alongside
	// Racks), and the clone-gate counters of the reactive schemes. Nil
	// unless Config.Congestion was set, so congestion-free Results stay
	// byte-identical to the pre-subsystem output.
	Congestion *CongestionSummary

	// Trace is the flight recorder's output: sampled request
	// lifecycle events in virtual-time order. Nil
	// unless Config.TraceRate > 0, so untraced Results are unchanged.
	Trace *trace.Data

	// Telemetry is the engine counter snapshot (burst sizes,
	// occupancy gauges). Nil unless Config.TraceRate > 0.
	Telemetry *trace.Telemetry
}

// RackStats is one rack's rolled-up counter view in multi-rack runs.
// Only the clients' rack should ever show NetClone activity (Cloned,
// FilterDrops, StateUpdates); every other rack's ToR counts PassL3
// transits — the §3.7 ownership invariant, observable per rack.
type RackStats struct {
	// Rack is the rack's index in topology order.
	Rack int
	// Servers is the number of servers homed on this rack.
	Servers int
	// Switch is this rack's ToR data-plane counter snapshot.
	Switch dataplane.Stats
	// CloneDropsAtServer sums the §3.4 stale-clone guard drops across
	// this rack's servers.
	CloneDropsAtServer int64
}

// CongestionSummary is the Result view of an executed congestion
// model (Config.Congestion).
type CongestionSummary struct {
	// Drops counts packets tail-dropped at full egress ports, and
	// Marks counts packets ECN-marked past the threshold, both summed
	// across every port.
	Drops int64
	Marks int64

	// MaxDepth is the deepest any port's queue ever got (packets,
	// including the one in service).
	MaxDepth int

	// MarkedAtClients counts responses that arrived at a client NIC
	// carrying the ECN mark — the end-to-end visibility of the signal.
	MarkedAtClients int64

	// SuppressedClones counts clones NetCloneSuppress skipped because
	// the egress or return port was past the marking threshold.
	SuppressedClones int64

	// BudgetSkips counts clones NetCloneAdaptive skipped because the
	// headroom-scaled token bucket was empty.
	BudgetSkips int64

	// Ports lists every egress port that saw at least one arrival, in
	// port-index order (servers, clients, uplinks, spine).
	Ports []PortCongStats

	// Racks rolls the port statistics up per rack, topology order —
	// the congestion companion of Result.Racks.
	Racks []RackCongStats

	// DepthBins and DropBins, non-nil only when Config.TimelineBinNS >
	// 0, hold the time-weighted mean total queue occupancy (packets,
	// summed over all ports) and the tail-drop count per timeline bin —
	// the queue-buildup curves behind the cong-* timeline experiments.
	DepthBins []float64
	DropBins  []int64
}

// PortCongStats is one egress port's congestion statistics.
type PortCongStats struct {
	// Rack is the port's home rack (destination rack for spine ports).
	Rack int
	// Class is "server", "client", "uplink", or "spine".
	Class string
	// Index identifies the port within its class: the server or client
	// ID, or the rack for uplink/spine ports.
	Index int
	// MaxDepth and MeanDepth describe the occupancy process (packets
	// in system; MeanDepth is time-weighted over the whole run).
	MaxDepth  int
	MeanDepth float64
	// Arrivals, Drops, and Marks count packets offered to, tail-dropped
	// at, and ECN-marked at this port.
	Arrivals int64
	Drops    int64
	Marks    int64
}

// RackCongStats is one rack's congestion rollup.
type RackCongStats struct {
	Rack     int
	MaxDepth int
	Drops    int64
	Marks    int64
}

// FaultWindow is one injection's activity interval as executed — the
// rows of the run's availability/recovery timeline.
type FaultWindow struct {
	// Kind is the injection kind label (faults.Kind.String()).
	Kind string
	// Target is the server or coordinator index, -1 for global faults.
	Target int
	// FromNS and UntilNS bound the window in virtual nanoseconds;
	// UntilNS is math.MaxInt64 for never-ending injections.
	FromNS  int64
	UntilNS int64
}

// FaultSummary is the Result view of an executed fault plan.
type FaultSummary struct {
	// Windows lists every injection's activity window in plan order:
	// the availability timeline of the run's faulted components.
	Windows []FaultWindow

	// Transitions counts fault begin/end transitions executed as
	// engine events (activations at t <= 0 apply at build time and
	// schedule nothing).
	Transitions int

	// ServersDownMax is the largest number of servers simultaneously
	// down at any point of the run.
	ServersDownMax int

	// DroppedPackets counts packets freed because a faulted component
	// (switch, server, or coordinator) was down when they arrived.
	// Loss-model drops are counted by Result.LostPackets instead.
	DroppedPackets int64

	// DegradedCompleted and Degraded cover request completions inside
	// the union of all fault windows — Degraded.P99 is the
	// degraded-window tail latency the chaos experiments reduce on.
	// Unlike Result.Latency, the degraded view is not warmup-gated:
	// it follows the fault windows wherever they land.
	DegradedCompleted int64
	Degraded          stats.Summary
}

// Normalized validates cfg and returns a copy with every zero field
// filled with its documented default — the exact config the simulator
// executes. The UDP-emulation backend uses it too, so both executable
// models resolve defaults identically.
func (cfg Config) Normalized() (Config, error) {
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	// The fabric defines the global worker list when Workers is empty.
	if len(cfg.Workers) == 0 {
		cfg.Workers = cfg.Topology.FlatWorkers()
	}
	if cfg.TraceRate > 0 && cfg.TraceCap == 0 {
		cfg.TraceCap = trace.DefaultCap
	}
	if cfg.NumClients == 0 {
		cfg.NumClients = 2
	}
	if cfg.Cal == (Calibration{}) {
		cfg.Cal = DefaultCalibration()
	}
	if cfg.FilterTables == 0 {
		cfg.FilterTables = 2
	}
	if cfg.FilterSlots == 0 {
		cfg.FilterSlots = 1 << 17
	}
	return cfg, nil
}

// validate returns the first contradiction or missing piece in cfg as
// an actionable error. It is the only validator: Normalized (and so
// Run) calls it, and Scenario.Validate is that call plus its WithShards
// check. A Scenario is the one public way to build a Config, so every
// message is worded for it and names the option that sets the field.
func (cfg Config) validate() error {
	// A Config whose servers are declared only by its Topology is valid:
	// Normalized fills Workers from the fabric.
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = cfg.Topology.FlatWorkers()
	}
	if len(workers) == 0 {
		return errors.New("scenario: no servers declared; add WithTopology(threads...), WithServers(n, threads), or WithRacks(racks...)")
	}
	if len(workers) < 2 {
		return fmt.Errorf("scenario: cloning needs at least two servers, got %d; grow WithTopology/WithServers/WithRacks", len(workers))
	}
	// n servers form n(n-1) groups, and the header's Group field is 16
	// bits: past 256 servers, group IDs would wrap onto low groups.
	// LÆDGE's coordinator picks servers itself; no switch reads Group.
	if len(workers) > 256 && cfg.Scheme != LAEDGE {
		return fmt.Errorf("scenario: %d servers form more groups than the 16-bit Group header field addresses; use at most 256 (WithServers/WithRacks/WithTopology)", len(workers))
	}
	for i, w := range workers {
		if w < 1 {
			return fmt.Errorf("scenario: server %d has %d worker threads, need >= 1 (WithTopology)", i, w)
		}
	}
	if cfg.Service == nil && cfg.Mix == nil {
		return errors.New("scenario: no workload declared; add WithWorkload(dist) or WithKVWorkload(mix, cost)")
	}
	if cfg.Service != nil && cfg.Mix != nil {
		return errors.New("scenario: both a synthetic distribution and a KV mix are set; use exactly one of WithWorkload / WithKVWorkload")
	}
	if cfg.OfferedRPS <= 0 {
		return fmt.Errorf("scenario: offered load is %g req/s, need > 0 (WithOfferedLoad)", cfg.OfferedRPS)
	}
	if cfg.DurationNS <= 0 {
		return fmt.Errorf("scenario: measurement duration is %d ns, need > 0 (WithWindow)", cfg.DurationNS)
	}
	if cfg.WarmupNS < 0 {
		return fmt.Errorf("scenario: warmup is %d ns, need >= 0 (WithWindow)", cfg.WarmupNS)
	}
	if cfg.NumClients < 0 {
		return fmt.Errorf("scenario: %d clients, need >= 0 (WithClients; 0 means the default 2)", cfg.NumClients)
	}
	if cfg.Scheme < Baseline || cfg.Scheme > NetCloneAdaptive {
		return fmt.Errorf("scenario: unknown scheme %d (WithScheme; see the Scheme constants)", int(cfg.Scheme))
	}
	if err := cfg.Congestion.Validate(); err != nil {
		return fmt.Errorf("scenario: invalid congestion model (WithCongestion/WithLinkRate): %w", err)
	}
	if cfg.FilterTables < 0 || cfg.FilterTables > 256 {
		return fmt.Errorf("scenario: %d filter tables, need 1..256 — the IDX header field is 8 bits (WithFilter)", cfg.FilterTables)
	}
	if cfg.FilterSlots < 0 || (cfg.FilterSlots > 0 && cfg.FilterSlots&(cfg.FilterSlots-1) != 0) {
		return fmt.Errorf("scenario: %d filter slots per table, need a power of two (WithFilter)", cfg.FilterSlots)
	}
	if cfg.TimelineBinNS < 0 {
		return fmt.Errorf("scenario: timeline bin is %d ns, need >= 0 (WithTimeline)", cfg.TimelineBinNS)
	}
	if cfg.TraceRate < 0 {
		return fmt.Errorf("scenario: trace rate %d, need >= 0 (WithTrace; 0 disables, 1 traces every request)", cfg.TraceRate)
	}
	if cfg.TraceCap < 0 {
		return fmt.Errorf("scenario: trace ring capacity %d, need >= 0 (WithTrace; 0 means the default)", cfg.TraceCap)
	}
	if cfg.TraceCap > 0 && cfg.TraceRate == 0 {
		return errors.New("scenario: trace ring capacity set without a sampling rate; pass WithTrace(rate, cap) with rate >= 1")
	}
	if cfg.Topology != nil {
		// A placement-only spec (no racks) fails spec.Validate below with
		// its own actionable message.
		if cfg.Topology.NumRacks() > 0 && len(cfg.Workers) > 0 {
			if flat := cfg.Topology.FlatWorkers(); !slices.Equal(cfg.Workers, flat) {
				return fmt.Errorf("scenario: WithTopology/WithServers %v disagrees with the WithRacks server list %v; declare the servers in one place", cfg.Workers, flat)
			}
		}
		if err := cfg.Topology.Validate(topology.Cluster{Coordinators: cfg.coordinatorTier()}); err != nil {
			return fmt.Errorf("scenario: invalid topology: %w", err)
		}
	}
	if cfg.NumCoordinators < 0 {
		return fmt.Errorf("scenario: %d coordinators, need >= 0 (WithCoordinators)", cfg.NumCoordinators)
	}
	if cfg.NumCoordinators > 0 && cfg.Scheme != LAEDGE {
		return fmt.Errorf("scenario: %d coordinators declared but scheme %s has no coordinator tier; WithCoordinators applies to LAEDGE only", cfg.NumCoordinators, cfg.Scheme)
	}
	if err := cfg.Faults.Validate(faults.Cluster{Servers: len(workers)}); err != nil {
		return fmt.Errorf("scenario: invalid fault plan: %w", err)
	}
	return nil
}

// coordinatorTier returns the (defaulted) LÆDGE tier size, 0 for every
// other scheme.
func (cfg Config) coordinatorTier() int {
	if cfg.Scheme != LAEDGE {
		return 0
	}
	if cfg.NumCoordinators < 1 {
		return 1
	}
	return cfg.NumCoordinators
}

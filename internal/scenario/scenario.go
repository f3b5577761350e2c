// Package scenario is the composable experiment-definition layer of the
// public API: a Scenario describes *what* to run — topology, workload,
// faults, calibration, and measurement window — independently of *how*
// it runs, and a Backend executes it. Two backends exist: Sim (the
// deterministic discrete-event simulator in internal/simcluster) and Emu
// (the real-UDP emulation in internal/udpemu). Both return a unified
// Result whose counters are directly comparable, so the same Scenario
// can be checked against both executable models of the system.
package scenario

import (
	"fmt"
	"time"

	"netclone/internal/congestion"
	"netclone/internal/faults"
	"netclone/internal/kvstore"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// Scenario is one declarative experiment point. Build it with New and
// the With* functional options; Scenario values are immutable after
// construction — With derives a modified copy — so one base scenario
// can safely fan out into many concurrently running variants.
type Scenario struct {
	cfg    simcluster.Config
	shards int // the WithShards request, reported back in Result.ShardInfo and otherwise unused
}

// Option mutates a Scenario under construction.
type Option func(*Scenario)

// New builds a scenario from functional options.
func New(opts ...Option) *Scenario {
	s := &Scenario{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// With returns a copy of the scenario with the extra options applied.
// The receiver is not modified.
func (s *Scenario) With(opts ...Option) *Scenario {
	c := *s
	for _, o := range opts {
		o(&c)
	}
	return &c
}

// Config exposes the scenario as the flat simulation config. Zero fields
// keep their documented defaults (filled by the executing backend). The
// Workers slice is a copy: mutating the returned config can never reach
// back into the scenario or its With-derived (possibly already running)
// variants.
func (s *Scenario) Config() simcluster.Config {
	cfg := s.cfg
	cfg.Workers = append([]int(nil), cfg.Workers...)
	return cfg
}

// ---------------------------------------------------------------------
// Topology

// WithScheme selects the request-dispatching scheme under test.
func WithScheme(scheme simcluster.Scheme) Option {
	return func(s *Scenario) { s.cfg.Scheme = scheme }
}

// WithTopology declares the worker servers explicitly: one server per
// argument, each with that many worker threads. Heterogeneous racks pass
// differing counts (the Fig 10 shape: 15, 15, 15, 8, 8, 8). Declares a
// single-rack fabric: any earlier WithRacks declaration is replaced
// (the last fabric-declaring option wins). An explicit WithPlacement is
// preserved, so a placement the new fabric cannot honor fails Validate
// instead of vanishing.
func WithTopology(workerThreads ...int) Option {
	ws := make([]int, len(workerThreads))
	copy(ws, workerThreads)
	return func(s *Scenario) {
		s.cfg.Workers = ws
		s.cfg.Topology = clearRacks(s.cfg.Topology)
	}
}

// WithServers declares n homogeneous servers with threads worker threads
// each — shorthand for the common uniform rack. Declares a single-rack
// fabric, like WithTopology.
func WithServers(n, threads int) Option {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = threads
	}
	return func(s *Scenario) {
		s.cfg.Workers = ws
		s.cfg.Topology = clearRacks(s.cfg.Topology)
	}
}

// clearRacks drops a fabric declaration while keeping an explicit
// placement pin alive: placement is not a fabric, so it survives until
// a fabric honors it (WithRacks) or Validate rejects it as orphaned.
func clearRacks(spec *topology.Spec) *topology.Spec {
	if !spec.PlacementExplicit() {
		return nil
	}
	return (*topology.Spec)(nil).WithClientRack(spec.ClientRack())
}

// WithRacks declares a multi-rack leaf–spine fabric (§3.7 generalized):
// each rack lists its servers' worker-thread counts and optionally its
// ToR<->spine uplink latency — crossing the fabric costs the sum of
// both uplinks one way, so heterogeneous uplinks give per-link latency.
// Clients are placed on rack 0 unless WithPlacement says otherwise
// (an earlier placement is preserved). Replaces any earlier WithRacks/
// WithTopology/WithServers declaration. Sim only.
func WithRacks(racks ...topology.Rack) Option {
	return func(s *Scenario) {
		spec := topology.New(racks...)
		if s.cfg.Topology.PlacementExplicit() {
			spec = spec.WithClientRack(s.cfg.Topology.ClientRack())
		}
		s.cfg.Topology = spec
		s.cfg.Workers = spec.FlatWorkers()
	}
}

// WithPlacement places the clients (and, for schemes that have one,
// the coordinator tier) on the given rack of the WithRacks fabric.
// Order-independent with WithRacks; Validate rejects placement without
// a fabric, or outside it. Sim only.
func WithPlacement(clientRack int) Option {
	return func(s *Scenario) {
		s.cfg.Topology = s.cfg.Topology.WithClientRack(clientRack)
	}
}

// WithClients sets the number of open-loop client machines (default 2,
// as in the paper). The offered load is split evenly across them.
func WithClients(n int) Option {
	return func(s *Scenario) { s.cfg.NumClients = n }
}

// WithCoordinators scales out the LAEDGE coordinator tier. Only
// meaningful for the LAEDGE scheme; Validate rejects other combinations.
func WithCoordinators(n int) Option {
	return func(s *Scenario) { s.cfg.NumCoordinators = n }
}

// ---------------------------------------------------------------------
// Workload

// WithWorkload selects a synthetic service-time distribution (§5.1.2).
func WithWorkload(dist workload.Dist) Option {
	return func(s *Scenario) { s.cfg.Service = dist }
}

// WithKVWorkload switches to the key-value workload (§5.5): operations
// drawn from mix, service times from the cost model. The Emu backend
// executes operations against a real store and ignores the cost model.
func WithKVWorkload(mix *workload.KVMix, cost kvstore.CostModel) Option {
	return func(s *Scenario) {
		s.cfg.Mix = mix
		s.cfg.Cost = cost
	}
}

// WithOfferedLoad sets the aggregate open-loop request rate in requests
// per second.
func WithOfferedLoad(rps float64) Option {
	return func(s *Scenario) { s.cfg.OfferedRPS = rps }
}

// ---------------------------------------------------------------------
// Measurement window

// WithWindow bounds the measurement window: requests completing within
// [warmup, warmup+duration) are recorded.
func WithWindow(warmup, duration time.Duration) Option {
	return func(s *Scenario) {
		s.cfg.WarmupNS = warmup.Nanoseconds()
		s.cfg.DurationNS = duration.Nanoseconds()
	}
}

// WithSeed makes the run reproducible (bit-for-bit on the Sim backend).
func WithSeed(seed uint64) Option {
	return func(s *Scenario) { s.cfg.Seed = seed }
}

// WithTimeline records completed requests into per-bin counts over the
// whole run (the Fig 16 throughput-vs-time shape). Sim only.
func WithTimeline(bin time.Duration) Option {
	return func(s *Scenario) { s.cfg.TimelineBinNS = bin.Nanoseconds() }
}

// ---------------------------------------------------------------------
// Calibration and switch sizing

// WithCalibration overrides the simulated testbed's latency constants.
func WithCalibration(cal simcluster.Calibration) Option {
	return func(s *Scenario) { s.cfg.Cal = cal }
}

// WithFilter sizes the switch response-filter tables: tables in [1,256]
// (the IDX header field is 8 bits), slots a power of two per table.
func WithFilter(tables, slots int) Option {
	return func(s *Scenario) {
		s.cfg.FilterTables = tables
		s.cfg.FilterSlots = slots
	}
}

// ---------------------------------------------------------------------
// Faults

// WithFaults sets the scenario's declarative fault plan (internal/
// faults): typed, time-scheduled injections — server crash/recover,
// service-time stragglers, time-varying loss windows and switch
// outages — executed by the simulator through its typed event engine.
// It replaces any previously composed plan, including entries added by
// WithLoss; an empty (or nil) plan is byte-identical to no plan at all.
// A Fig 16 switch stop/reactivate cycle is
// WithFaultInjections(faults.SwitchOutage(failAt, recoverAt)).
// The Emu backend runs only the loss and server-crash kinds.
func WithFaults(plan *faults.Plan) Option {
	return func(s *Scenario) { s.cfg.Faults = plan }
}

// WithFaultInjections appends injections to the scenario's fault plan,
// composing with whatever plan is already set. Emu: as WithFaults.
func WithFaultInjections(inj ...faults.Injection) Option {
	return func(s *Scenario) { s.cfg.Faults = s.cfg.Faults.With(inj...) }
}

// WithLoss drops each link traversal independently with probability p —
// the §3.6 dropped-messages failure model. Shorthand for appending the
// constant whole-run loss window faults.Loss(0, faults.Forever, p) to
// the fault plan. Runs on both backends.
func WithLoss(p float64) Option {
	return WithFaultInjections(faults.Loss(0, faults.Forever, p))
}

// ---------------------------------------------------------------------
// Congestion

// WithCongestion sets the scenario's declarative congestion model
// (internal/congestion): finite FIFO queues with configurable service
// rates at every ToR and spine egress port, ECN-style marking, and
// tail-drop on overflow, executed by the simulator through its typed
// event engine. nil — the default — means infinite-capacity links,
// byte-identical to the pre-congestion simulator. Sim only.
func WithCongestion(spec *congestion.Spec) Option {
	return func(s *Scenario) { s.cfg.Congestion = spec }
}

// WithLinkRate sets the edge-port (ToR<->host) line rate in Gbps,
// enabling the congestion model with defaults for every other knob if
// no WithCongestion spec is set — shorthand for the common "how slow
// can the edge get" sweep. Composes with an earlier or later
// WithCongestion by deriving from whatever spec is current. Sim only.
func WithLinkRate(gbps float64) Option {
	return func(s *Scenario) { s.cfg.Congestion = s.cfg.Congestion.WithLinkRate(gbps) }
}

// WithShards is accepted and ignored: the parallel-in-time sharded
// core it selected is gone (DESIGN.md §10). The request is recorded and
// reported back in Result.ShardInfo.
//
// Deprecated: parallelism is per point (internal/runner), not per run.
func WithShards(n int) Option {
	return func(s *Scenario) { s.shards = n }
}

// WithTrace enables the flight recorder: every rate-th request per
// client (rate 1 traces everything) has its full lifecycle — issue,
// dispatch, clone fan-out, port enqueue/mark/drop, service, filter
// decision, completion — recorded into Result.Trace, and engine
// telemetry is snapshotted into Result.Telemetry. ringCap bounds the
// record ring (0 means the trace.DefaultCap, 64Ki records);
// on overflow the oldest records are overwritten and counted. Sampling
// is a pure function of the client sequence number, so the simulated
// event order is bit-identical with tracing on or off. Export with
// netclone.WriteChromeTrace / WriteTraceCSV. Sim only.
func WithTrace(rate, ringCap int) Option {
	return func(s *Scenario) {
		s.cfg.TraceRate = rate
		s.cfg.TraceCap = ringCap
	}
}

// ---------------------------------------------------------------------
// Ablation knobs

// WithoutCloneDropGuard removes the server-side stale-state guard
// (§3.4). Ablation only.
func WithoutCloneDropGuard() Option {
	return func(s *Scenario) { s.cfg.DisableServerCloneDrop = true }
}

// WithSingleOrderingGroups restricts clients to groups whose first
// candidate has the lower server ID (§3.3 ablation).
func WithSingleOrderingGroups() Option {
	return func(s *Scenario) { s.cfg.SingleOrderingGroups = true }
}

// ---------------------------------------------------------------------
// Validation

// Validate checks the scenario for contradictions and missing pieces and
// returns the first problem found as an actionable error. Backends run
// it before executing; call it directly to fail fast at build time.
// Every check except WithShards' lives in simcluster.Config's one
// validator, which simcluster.Run applies too.
func (s *Scenario) Validate() error {
	if _, err := s.cfg.Normalized(); err != nil {
		return err
	}
	if s.shards < 0 {
		return fmt.Errorf("scenario: %d shards, need >= 0 (WithShards)", s.shards)
	}
	return nil
}

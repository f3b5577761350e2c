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
	"slices"
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

// FromConfig wraps a legacy flat Config as a Scenario — the migration
// bridge for code built against the original Run(Config) API. The
// Workers slice is copied, so later mutation of the caller's config
// cannot reach into an immutable (possibly already-running) scenario.
func FromConfig(cfg simcluster.Config) *Scenario {
	cfg.Workers = append([]int(nil), cfg.Workers...)
	return &Scenario{cfg: cfg}
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

// WithMultiRack places the workers behind a second ToR switch reached
// through an aggregation layer with the given extra one-way delay
// (§3.7). A thin wrapper over the canonical two-rack fabric — an empty
// client rack in front of one rack holding every server — executed by
// the same N-rack topology code as WithRacks, bit-identically to the
// original two-ToR special case for read workloads (direct write
// requests now pay the spine crossing the old code under-charged; see
// the simcluster.Config.MultiRack doc). Not modelled for LAEDGE; new
// fabrics should prefer WithRacks. Sim only.
func WithMultiRack(aggDelay time.Duration) Option {
	return func(s *Scenario) {
		s.cfg.MultiRack = true
		s.cfg.AggDelayNS = aggDelay.Nanoseconds()
	}
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

// WithBreakdownSampling traces every n-th generated request through
// queueing, service, and path phases (Result.Breakdown). Sim only.
func WithBreakdownSampling(every int) Option {
	return func(s *Scenario) { s.cfg.SampleEvery = every }
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
// service-time stragglers, time-varying loss windows, link jitter,
// coordinator failures, and switch outages — executed by the simulator
// through its typed event engine. It replaces any previously composed
// plan, including entries added by the WithLoss / WithSwitchFailure
// wrappers; an empty (or nil) plan is byte-identical to no plan at
// all. Sim only.
func WithFaults(plan *faults.Plan) Option {
	return func(s *Scenario) { s.cfg.Faults = plan }
}

// WithFaultInjections appends injections to the scenario's fault plan,
// composing with whatever plan is already set. Sim only.
func WithFaultInjections(inj ...faults.Injection) Option {
	return func(s *Scenario) { s.cfg.Faults = s.cfg.Faults.With(inj...) }
}

// WithLoss drops each link traversal independently with probability p —
// the §3.6 dropped-messages failure model. A thin wrapper over a
// one-entry fault plan (a constant whole-run loss window), bit-identical
// to the pre-plan hard-coded knob. Sim only.
func WithLoss(p float64) Option {
	return WithFaultInjections(faults.Loss(0, faults.Forever, p))
}

// WithSwitchFailure stops the switch (dropping all packets and its soft
// state) during [failAt, recoverAt) — the Fig 16 experiment. A thin
// wrapper over a one-entry fault plan (faults.SwitchOutage) that keeps
// the legacy zero semantics: both times zero means unset (no-op), and a
// half-set window is the same validation error as before, not an
// outage from t = 0 — use faults.SwitchOutage directly for that. Sim
// only.
func WithSwitchFailure(failAt, recoverAt time.Duration) Option {
	if failAt <= 0 || recoverAt <= 0 {
		return func(s *Scenario) {
			s.cfg.SwitchFailAtNS = failAt.Nanoseconds()
			s.cfg.SwitchRecoverAtNS = recoverAt.Nanoseconds()
		}
	}
	return WithFaultInjections(faults.SwitchOutage(failAt, recoverAt))
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
func (s *Scenario) Validate() error {
	cfg := s.cfg
	// A Config carrying only a Topology (the FromConfig bridge) is
	// valid: resolve the server list the way the executor will, so the
	// scenario surface validates the exact fabric that runs.
	workers := cfg.Workers
	if len(workers) == 0 && cfg.Topology.NumRacks() > 0 {
		workers = cfg.Topology.FlatWorkers()
	}
	if len(workers) == 0 {
		return fmt.Errorf("scenario: no servers declared; add WithTopology(threads...), WithServers(n, threads), or WithRacks(racks...)")
	}
	if len(workers) < 2 {
		return fmt.Errorf("scenario: cloning needs at least two servers, got %d; grow WithTopology/WithServers/WithRacks", len(workers))
	}
	for i, w := range workers {
		if w < 1 {
			return fmt.Errorf("scenario: server %d has %d worker threads, need >= 1 (WithTopology)", i, w)
		}
	}
	if cfg.Service == nil && cfg.Mix == nil {
		return fmt.Errorf("scenario: no workload declared; add WithWorkload(dist) or WithKVWorkload(mix, cost)")
	}
	if cfg.Service != nil && cfg.Mix != nil {
		return fmt.Errorf("scenario: both a synthetic distribution and a KV mix are set; use exactly one of WithWorkload / WithKVWorkload")
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
	if cfg.Scheme < simcluster.Baseline || cfg.Scheme > simcluster.NetCloneAdaptive {
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
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return fmt.Errorf("scenario: loss probability %g, need [0, 1) (WithLoss)", cfg.LossProb)
	}
	if (cfg.SwitchFailAtNS > 0) != (cfg.SwitchRecoverAtNS > 0) {
		return fmt.Errorf("scenario: switch failure needs both fail and recovery times > 0 (WithSwitchFailure)")
	}
	if cfg.SwitchFailAtNS > 0 && cfg.SwitchRecoverAtNS <= cfg.SwitchFailAtNS {
		return fmt.Errorf("scenario: switch recovery at %d ns is not after failure at %d ns (WithSwitchFailure)", cfg.SwitchRecoverAtNS, cfg.SwitchFailAtNS)
	}
	if cfg.TimelineBinNS < 0 {
		return fmt.Errorf("scenario: timeline bin is %d ns, need >= 0 (WithTimeline)", cfg.TimelineBinNS)
	}
	if cfg.SampleEvery < 0 {
		return fmt.Errorf("scenario: breakdown sampling every %d requests, need >= 0 (WithBreakdownSampling)", cfg.SampleEvery)
	}
	if s.shards < 0 {
		return fmt.Errorf("scenario: %d shards, need >= 0 (WithShards)", s.shards)
	}
	if cfg.TraceRate < 0 {
		return fmt.Errorf("scenario: trace rate %d, need >= 0 (WithTrace; 0 disables, 1 traces every request)", cfg.TraceRate)
	}
	if cfg.TraceCap < 0 {
		return fmt.Errorf("scenario: trace ring capacity %d, need >= 0 (WithTrace; 0 means the default)", cfg.TraceCap)
	}
	if cfg.TraceCap > 0 && cfg.TraceRate == 0 {
		return fmt.Errorf("scenario: trace ring capacity set without a sampling rate; pass WithTrace(rate, cap) with rate >= 1")
	}
	if cfg.MultiRack && cfg.Topology != nil {
		if cfg.Topology.NumRacks() == 0 {
			return fmt.Errorf("scenario: WithPlacement needs a WithRacks fabric and cannot combine with WithMultiRack; declare the fabric with WithRacks instead")
		}
		return fmt.Errorf("scenario: both WithMultiRack and WithRacks declared; declare the fabric exactly once")
	}
	if cfg.Topology.NumRacks() > 0 && len(cfg.Workers) > 0 && !slices.Equal(cfg.Workers, cfg.Topology.FlatWorkers()) {
		return fmt.Errorf("scenario: WithTopology/WithServers %v disagrees with the WithRacks server list %v; declare the servers in one place", cfg.Workers, cfg.Topology.FlatWorkers())
	}
	if spec := cfg.CanonicalTopology(); spec != nil {
		// One validation surface for the fabric: the simulator's config
		// normalization runs the identical check, so both entry points
		// emit one uniform message (the LAEDGE contradiction included).
		if err := spec.Validate(topology.Cluster{Coordinators: cfg.CoordinatorTier()}); err != nil {
			return fmt.Errorf("scenario: invalid topology: %w", err)
		}
	}
	if cfg.NumCoordinators < 0 {
		return fmt.Errorf("scenario: %d coordinators, need >= 0 (WithCoordinators)", cfg.NumCoordinators)
	}
	if cfg.NumCoordinators > 0 && cfg.Scheme != simcluster.LAEDGE {
		return fmt.Errorf("scenario: %d coordinators declared but scheme %s has no coordinator tier; WithCoordinators applies to LAEDGE only", cfg.NumCoordinators, cfg.Scheme)
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(faults.Cluster{
			Servers:      len(workers),
			Coordinators: cfg.CoordinatorTier(),
		}); err != nil {
			return fmt.Errorf("scenario: invalid fault plan: %w", err)
		}
	}
	return nil
}

// Package netclone is a faithful software reproduction of "NetClone:
// Fast, Scalable, and Dynamic Request Cloning for Microsecond-Scale
// RPCs" (Gyuyeong Kim, ACM SIGCOMM 2023).
//
// NetClone reduces RPC tail latency by cloning requests in the
// Top-of-Rack switch: a request is replicated to a second server only
// when both candidate servers are tracked as idle, and the slower of the
// two responses is filtered in the switch data plane using request-ID
// fingerprints. This package is the public facade over the internal
// implementation:
//
//   - the PISA-constrained switch data plane (the paper's contribution),
//   - a deterministic discrete-event cluster simulation reproducing the
//     paper's testbed and every figure of its evaluation,
//   - a declarative leaf–spine fabric layer (WithRacks/WithPlacement)
//     generalizing the §3.7 multi-rack deployment to N racks with
//     per-link latency,
//   - a real-UDP emulation of the switch, servers, and clients,
//   - workload generators (synthetic service-time distributions and
//     Zipf-skewed key-value mixes).
//
// # Quick start
//
// Describe an experiment once as a composable Scenario, then run it on
// a Backend. The Sim backend is the deterministic simulator behind all
// paper figures; the Emu backend runs the identical scenario over real
// UDP sockets:
//
//	sc := netclone.NewScenario(
//		netclone.WithScheme(netclone.NetClone),
//		netclone.WithServers(6, 16),
//		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
//		netclone.WithOfferedLoad(1e6),
//		netclone.WithWindow(50*time.Millisecond, 200*time.Millisecond),
//		netclone.WithSeed(1),
//	)
//	res, err := netclone.Sim().Run(sc)
//	fmt.Println(res.Latency) // p50/p99/... in nanoseconds
//
//	emu, err := netclone.Emu().Run(sc) // same scenario, real sockets
//	fmt.Println(emu.Completed, emu.Switch.Cloned, emu.RedundantAtClient)
//
// Reproduce a full paper figure (optionally on a different backend via
// Options.Backend):
//
//	report, err := netclone.RunExperiment("fig7a", netclone.DefaultOptions())
//	netclone.RenderText(os.Stdout, report)
//
// Every experiment describes its grid of scenario points declaratively
// and hands it to a bounded worker pool, so independent points run
// concurrently. Options.Parallelism bounds the pool (0 = one worker per
// CPU); reports are byte-identical at every parallelism level:
//
//	opts := netclone.DefaultOptions()
//	opts.Parallelism = 8 // or leave 0 for GOMAXPROCS
//	report, err := netclone.RunExperiment("fig7a", opts)
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured comparison of every table
// and figure.
package netclone

import (
	"fmt"
	"io"
	"time"

	"netclone/internal/congestion"
	"netclone/internal/faults"
	"netclone/internal/harness"
	"netclone/internal/kvstore"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/trace"
	"netclone/internal/workload"
)

// Schemes compared in the paper's evaluation (§5.1.3).
const (
	// Baseline forwards each request to a uniformly random worker.
	Baseline = simcluster.Baseline
	// CClone is traditional client-based static cloning.
	CClone = simcluster.CClone
	// LAEDGE is coordinator-based dynamic cloning (NSDI'21).
	LAEDGE = simcluster.LAEDGE
	// NetClone is in-switch dynamic cloning with response filtering.
	NetClone = simcluster.NetClone
	// NetCloneRackSched integrates NetClone with the RackSched JSQ
	// scheduler (§3.7).
	NetCloneRackSched = simcluster.NetCloneRackSched
	// NetCloneNoFilter disables response filtering (Fig 15 ablation).
	NetCloneNoFilter = simcluster.NetCloneNoFilter
	// NetCloneSuppress is NetClone with near-source clone suppression:
	// no clone is created while the port it would leave through (or the
	// requester's return port) sits past the ECN marking threshold.
	// Needs WithCongestion; degrades to exact NetClone without it.
	NetCloneSuppress = simcluster.NetCloneSuppress
	// NetCloneAdaptive is NetClone with an adaptive clone budget: a
	// token bucket refilled at a rate scaled by the watched port's
	// queue headroom. Needs WithCongestion; degrades to exact NetClone
	// without it.
	NetCloneAdaptive = simcluster.NetCloneAdaptive
)

// Scheme selects the request-dispatching scheme of a run.
type Scheme = simcluster.Scheme

// ---------------------------------------------------------------------
// Scenario definition

// Scenario is one composable experiment definition: topology, workload,
// faults, calibration, and measurement window, independent of the
// backend that executes it. Build it with NewScenario and the With*
// options; derive variants with its With method.
type Scenario = scenario.Scenario

// ScenarioOption configures a Scenario under construction.
type ScenarioOption = scenario.Option

// NewScenario builds a scenario from functional options.
func NewScenario(opts ...ScenarioOption) *Scenario { return scenario.New(opts...) }

// WithScheme selects the request-dispatching scheme under test.
func WithScheme(s Scheme) ScenarioOption { return scenario.WithScheme(s) }

// WithTopology declares the worker servers explicitly: one server per
// argument, each with that many worker threads (heterogeneous racks
// pass differing counts).
func WithTopology(workerThreads ...int) ScenarioOption {
	return scenario.WithTopology(workerThreads...)
}

// WithServers declares n homogeneous servers with threads worker
// threads each.
func WithServers(n, threads int) ScenarioOption { return scenario.WithServers(n, threads) }

// WithClients sets the number of open-loop client machines (default 2).
func WithClients(n int) ScenarioOption { return scenario.WithClients(n) }

// WithCoordinators scales out the LAEDGE coordinator tier (§2.2).
func WithCoordinators(n int) ScenarioOption { return scenario.WithCoordinators(n) }

// ---------------------------------------------------------------------
// Fabric topology (multi-rack leaf–spine deployments)

// Rack is one leaf of a declarative fabric: the worker-thread counts of
// the servers homed behind one ToR switch, plus that ToR's spine
// uplink latency (0 means the 1 us default). Crossing the fabric costs
// the sum of both racks' uplinks one way.
type Rack = topology.Rack

// TopologySpec is a declarative, immutable leaf–spine fabric: N racks
// of heterogeneous servers, one ToR per rack, per-link spine latency,
// and explicit client placement. Attach one to a scenario with
// WithRacks/WithPlacement; the simulator compiles it into a flat
// routing table and builds one switch data plane per rack, with the
// §3.7 switch-ID ownership rule confining NetClone processing to the
// clients' ToR.
type TopologySpec = topology.Spec

// HomRack returns a rack of n homogeneous servers with threads worker
// threads each behind an uplink of the given latency (0 = default).
func HomRack(n, threads int, uplink time.Duration) Rack {
	return topology.HomRack(n, threads, uplink)
}

// WithRacks declares a multi-rack leaf–spine fabric: each rack lists
// its servers and optionally its uplink latency. Clients sit on rack 0
// unless WithPlacement says otherwise. Replaces any earlier WithRacks/
// WithTopology/WithServers declaration. Sim only.
func WithRacks(racks ...Rack) ScenarioOption { return scenario.WithRacks(racks...) }

// WithPlacement places the clients on the given rack of the WithRacks
// fabric (order-independent with WithRacks). Sim only.
func WithPlacement(clientRack int) ScenarioOption { return scenario.WithPlacement(clientRack) }

// RackStats is one rack's rolled-up counter view in a multi-rack
// Result (Result.Racks): the rack's ToR data-plane snapshot plus the
// clone drops of the servers homed there. Only the clients' rack ever
// shows NetClone activity — the per-rack view of the ownership rule.
type RackStats = simcluster.RackStats

// WithWorkload selects a synthetic service-time distribution (§5.1.2).
func WithWorkload(d Dist) ScenarioOption { return scenario.WithWorkload(d) }

// WithKVWorkload switches to the key-value workload (§5.5): operations
// drawn from mix, simulated service times from the cost model. The Emu
// backend executes the operations against a real in-memory store.
func WithKVWorkload(mix *KVMix, cost CostModel) ScenarioOption {
	return scenario.WithKVWorkload(mix, cost)
}

// WithOfferedLoad sets the aggregate open-loop request rate in requests
// per second.
func WithOfferedLoad(rps float64) ScenarioOption { return scenario.WithOfferedLoad(rps) }

// WithWindow bounds the measurement window: requests completing within
// [warmup, warmup+duration) are recorded.
func WithWindow(warmup, duration time.Duration) ScenarioOption {
	return scenario.WithWindow(warmup, duration)
}

// WithSeed makes the run reproducible (bit-for-bit on the Sim backend).
func WithSeed(seed uint64) ScenarioOption { return scenario.WithSeed(seed) }

// WithCalibration overrides the simulated testbed's latency constants.
func WithCalibration(cal Calibration) ScenarioOption { return scenario.WithCalibration(cal) }

// WithFilter sizes the switch response-filter tables: tables in [1,256],
// slots a power of two per table.
func WithFilter(tables, slots int) ScenarioOption { return scenario.WithFilter(tables, slots) }

// WithLoss drops each link traversal independently with probability p
// (§3.6) — a thin wrapper over a one-entry fault plan. Sim only.
func WithLoss(p float64) ScenarioOption { return scenario.WithLoss(p) }

// ---------------------------------------------------------------------
// Congestion model

// CongestionSpec is a declarative, immutable congestion model: finite
// FIFO queues with configurable service rates (link bandwidth) at
// every ToR and spine egress port, an ECN-style marking threshold, and
// tail-drop on overflow. Build one with NewCongestion and its With*
// methods, attach it with WithCongestion, and read the executed
// model's drops, marks, and queue depths back from Result.Congestion.
// A nil spec means infinite-capacity links — byte-identical to the
// pre-congestion simulator. Sim only.
type CongestionSpec = congestion.Spec

// NewCongestion returns the default congestion model: 64-packet port
// queues, marking above 16, 10 Gbps edge ports, 40 Gbps fabric ports,
// 1500 B packets.
func NewCongestion() *CongestionSpec { return congestion.New() }

// WithCongestion sets the scenario's congestion model. Sim only.
func WithCongestion(spec *CongestionSpec) ScenarioOption { return scenario.WithCongestion(spec) }

// WithLinkRate sets the edge-port (ToR<->host) line rate in Gbps,
// enabling the congestion model with defaults for the other knobs if
// no spec is set. Sim only.
func WithLinkRate(gbps float64) ScenarioOption { return scenario.WithLinkRate(gbps) }

// CongestionSummary is the Result view of an executed congestion model
// (Result.Congestion): cluster-wide drops, marks, and maximum queue
// depth; per-port occupancy statistics; per-rack rollups; and, for
// reactive schemes, the suppressed-clone and budget-skip counters.
type CongestionSummary = simcluster.CongestionSummary

// PortCongStats is one egress port's occupancy statistics in a
// CongestionSummary.
type PortCongStats = simcluster.PortCongStats

// RackCongStats is one rack's congestion rollup in a CongestionSummary.
type RackCongStats = simcluster.RackCongStats

// ---------------------------------------------------------------------
// Fault plans (chaos experiments)

// FaultPlan is a declarative, ordered set of typed fault injections the
// simulator executes during a run: build one with NewFaultPlan and the
// Fault* constructors, attach it with WithFaults, and read the executed
// windows plus degraded-window latency back from Result.Faults. Plans
// are validated (windows, targets, same-kind overlap contradictions)
// by Scenario.Validate. Sim only.
type FaultPlan = faults.Plan

// FaultInjection is one typed, time-scheduled fault of a plan.
type FaultInjection = faults.Injection

// FaultForever is the recover/until sentinel for injections that stay
// active to the end of the run.
const FaultForever = faults.Forever

// NewFaultPlan builds a fault plan from injections.
func NewFaultPlan(inj ...FaultInjection) *FaultPlan { return faults.New(inj...) }

// WithFaults sets the scenario's fault plan, replacing any previously
// composed plan (including WithLoss entries).
func WithFaults(plan *FaultPlan) ScenarioOption { return scenario.WithFaults(plan) }

// WithFaultInjections appends injections to the scenario's fault plan.
func WithFaultInjections(inj ...FaultInjection) ScenarioOption {
	return scenario.WithFaultInjections(inj...)
}

// FaultServerCrash takes a worker server down during [at, recoverAt):
// queued and in-flight work is lost and the server restarts empty.
func FaultServerCrash(server int, at, recoverAt time.Duration) FaultInjection {
	return faults.ServerCrash(server, at, recoverAt)
}

// FaultServerSlowdown multiplies a server's service times by factor
// during [from, until), ramping linearly from 1x over ramp — the
// straggling-endpoint model.
func FaultServerSlowdown(server int, from, until time.Duration, factor float64, ramp time.Duration) FaultInjection {
	return faults.ServerSlowdown(server, from, until, factor, ramp)
}

// FaultLoss drops each link traversal with constant probability p
// during [from, until).
func FaultLoss(from, until time.Duration, p float64) FaultInjection {
	return faults.Loss(from, until, p)
}

// FaultLossRamp interpolates the per-link drop probability linearly
// from startP to endP across [from, until) — a decaying loss burst.
func FaultLossRamp(from, until time.Duration, startP, endP float64) FaultInjection {
	return faults.LossRamp(from, until, startP, endP)
}

// FaultSwitchOutage stops the client-side ToR during [at, recoverAt),
// dropping all packets and its soft state (§3.6) — the Fig 16
// experiment.
func FaultSwitchOutage(at, recoverAt time.Duration) FaultInjection {
	return faults.SwitchOutage(at, recoverAt)
}

// FaultSummary is the Result view of an executed fault plan: the
// per-window availability timeline, fault-induced drops, and the
// degraded-window latency summary.
type FaultSummary = simcluster.FaultSummary

// FaultWindow is one executed injection window of a FaultSummary.
type FaultWindow = simcluster.FaultWindow

// WithTimeline records completed requests into per-bin counts over the
// whole run. Sim only.
func WithTimeline(bin time.Duration) ScenarioOption { return scenario.WithTimeline(bin) }

// WithShards is accepted and ignored; Result.ShardInfo reports the
// request back.
//
// Deprecated: the sharded core it selected is gone (DESIGN.md §10).
func WithShards(n int) ScenarioOption { return scenario.WithShards(n) }

// WithTrace enables the flight recorder: every rate-th request per
// client (rate 1 traces everything) has its full lifecycle recorded
// into Result.Trace, and engine telemetry is snapshotted into
// Result.Telemetry. ringCap bounds the record ring (0 means
// the default, 64Ki records); on overflow the oldest records are
// overwritten. Tracing never perturbs the simulation — the event order
// is bit-identical with it on or off — and rate 0 (the default)
// disables it at zero cost. Export with WriteChromeTrace (Perfetto /
// chrome://tracing) or WriteTraceCSV. Sim only.
func WithTrace(rate, ringCap int) ScenarioOption { return scenario.WithTrace(rate, ringCap) }

// TraceData is a run's flight-recorder output (Result.Trace): sampled
// request-lifecycle events in virtual-time order.
type TraceData = trace.Data

// TraceEvent is one fixed-size flight-recorder record.
type TraceEvent = trace.Event

// Telemetry is a run's engine counter snapshot (Result.Telemetry):
// engine statistics plus time-binned occupancy gauges.
type Telemetry = trace.Telemetry

// ShardInfo reports a WithShards request back (Result.ShardInfo on the
// Sim backend): Effective is always 1.
type ShardInfo = scenario.ShardInfo

// WriteChromeTrace renders flight-recorder data as Chrome trace-event
// JSON, loadable at ui.perfetto.dev or chrome://tracing: one process,
// one track per rack, request/flight/service spans nested,
// with marks, drops, and clone decisions as instants.
func WriteChromeTrace(w io.Writer, d *TraceData) error { return trace.WriteChrome(w, d) }

// WriteTraceCSV dumps flight-recorder data as a flat CSV
// (at_ns,kind,client,seq,rack,flags,value,port).
func WriteTraceCSV(w io.Writer, d *TraceData) error { return trace.WriteCSV(w, d) }

// WithoutCloneDropGuard removes the server-side stale-state guard
// (§3.4 ablation). Sim only.
func WithoutCloneDropGuard() ScenarioOption { return scenario.WithoutCloneDropGuard() }

// WithSingleOrderingGroups restricts clients to groups whose first
// candidate has the lower server ID (§3.3 ablation). Sim only.
func WithSingleOrderingGroups() ScenarioOption { return scenario.WithSingleOrderingGroups() }

// ---------------------------------------------------------------------
// Backends

// Backend executes Scenarios; implementations are safe for concurrent
// Run calls. Sim() and Emu() are the built-in backends.
type Backend = scenario.Backend

// ScenarioResult is the unified outcome of running a Scenario on any
// backend: the simulator's full counter set plus the backend identity
// and the server-side processed count, so sim-vs-emu runs compare
// directly (latency summary, throughput, clone/redundant/drop counts).
type ScenarioResult = scenario.Result

// Sim returns the simulator backend: scenarios run as deterministic
// discrete-event simulations, bit-identical for identical scenarios.
func Sim() Backend { return scenario.Sim() }

// Emu returns the UDP-emulation backend: the scenario's topology is
// instantiated as an in-process loopback cluster (switch emulator,
// kvstore-backed servers, measuring clients) exercising the identical
// data-plane pipeline and wire format over the kernel network stack.
// Offered rates are capped (EmuMaxRate) and latency figures include
// kernel scheduling noise; use it to prove the protocol end-to-end and
// to cross-check counters against Sim.
func Emu(opts ...EmuOption) Backend { return scenario.Emu(opts...) }

// ErrSimOnly marks experiment or scenario errors caused by a capability
// only the simulator models (fault injection, timelines, coordinator
// tiers, ...). Sweeps over a non-sim backend can errors.Is against it
// to skip such experiments instead of aborting.
var ErrSimOnly = scenario.ErrSimOnly

// EmuOption tunes the UDP-emulation backend.
type EmuOption = scenario.EmuOption

// EmuMaxRate caps the emulated open-loop rate in requests per second
// (default 4000): simulator-scale MRPS loads are scaled down to what
// loopback sockets absorb.
func EmuMaxRate(rps float64) EmuOption { return scenario.EmuMaxRate(rps) }

// EmuTimeout bounds each emulated request round trip (default 5s).
func EmuTimeout(d time.Duration) EmuOption { return scenario.EmuTimeout(d) }

// EmuStoreObjects sizes the emulated servers' shared key-value store
// (default 65536).
func EmuStoreObjects(n int) EmuOption { return scenario.EmuStoreObjects(n) }

// ---------------------------------------------------------------------
// Calibration

// Calibration holds the simulated testbed's latency constants.
type Calibration = simcluster.Calibration

// DefaultCalibration returns the calibration constants documented in
// DESIGN.md §5.
func DefaultCalibration() Calibration { return simcluster.DefaultCalibration() }

// ---------------------------------------------------------------------
// Workloads

// Dist is a service-time distribution.
type Dist = workload.Dist

// Exp returns an exponential service-time distribution with the given
// mean in microseconds (the paper's Exp(25) / Exp(50) workloads).
func Exp(meanUS float64) Dist { return workload.Exp(meanUS) }

// Bimodal9010 returns the paper's 90%/10% bimodal distribution with means
// in microseconds.
func Bimodal9010(shortUS, longUS float64) Dist { return workload.Bimodal9010(shortUS, longUS) }

// WithJitter wraps a distribution with the paper's x15 jitter at
// probability p (p=0.01 high variability, p=0.001 low).
func WithJitter(base Dist, p float64) Dist { return workload.WithJitter(base, p) }

// KVMix draws GET/SCAN/SET operations with Zipf-skewed keys (§5.5).
type KVMix = workload.KVMix

// NewKVMix builds an operation mix over n keys with Zipf skew s.
func NewKVMix(pGet, pScan float64, n uint64, s float64) *KVMix {
	return workload.NewKVMix(pGet, pScan, n, s)
}

// CostModel supplies per-operation service times for key-value servers.
type CostModel = kvstore.CostModel

// RedisModel returns the Redis-calibrated cost model (Fig 11).
func RedisModel() CostModel { return kvstore.Redis() }

// MemcachedModel returns the Memcached-calibrated cost model (Fig 12).
func MemcachedModel() CostModel { return kvstore.Memcached() }

// ---------------------------------------------------------------------
// Experiments

// Options scale experiment fidelity for RunExperiment, bound its
// parallelism (Options.Parallelism; 0 = one worker per CPU), and select
// the execution backend (Options.Backend; nil = Sim()).
type Options = harness.Options

// NoWarmup is the explicit Options.WarmupNS sentinel for "measure from
// time zero"; a zero WarmupNS means the default 50 ms warmup.
const NoWarmup = harness.NoWarmup

// Report is a rendered-ready experiment result.
type Report = harness.Report

// ReportKind declares a report's structural shape (figure vs timeline)
// so consumers like netclone-bench -timeline can select reports without
// sniffing axis labels.
type ReportKind = harness.ReportKind

const (
	// ReportFigure marks the default shape: series over an experiment
	// variable (load, rate, factor).
	ReportFigure = harness.ReportFigure
	// ReportTimeline marks time-binned reports (fig16, chaos-*,
	// cong-timeline): every series' X axis is seconds.
	ReportTimeline = harness.ReportTimeline
)

// Aux-series labels carried by timeline reports alongside throughput;
// netclone-bench -timeline folds them into dedicated CSV columns.
const (
	TimelineDepthLabel = harness.TimelineDepthLabel
	TimelineDropsLabel = harness.TimelineDropsLabel
)

// ReportSeries is one labelled curve of a figure report.
type ReportSeries = harness.Series

// ReportPoint is one datum of a report series.
type ReportPoint = harness.Point

// Experiment is one reproducible table or figure of the paper.
type Experiment = harness.Experiment

// DefaultOptions returns full-fidelity experiment options.
func DefaultOptions() Options { return harness.Default() }

// QuickOptions returns reduced-fidelity options for fast iteration.
func QuickOptions() Options { return harness.Quick() }

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []*Experiment { return harness.All() }

// ExperimentIDs returns the sorted experiment identifiers (fig7a...,
// table1, table2, abl-...).
func ExperimentIDs() []string { return harness.IDs() }

// RunExperiment reproduces one paper table or figure by ID on the
// backend selected by opts.Backend (the simulator when nil).
func RunExperiment(id string, opts Options) (Report, error) {
	e, ok := harness.Lookup(id)
	if !ok {
		return Report{}, fmt.Errorf("netclone: unknown experiment %q (see ExperimentIDs)", id)
	}
	return e.Run(opts)
}

// RenderText writes a human-readable rendering of a report.
func RenderText(w io.Writer, r Report) error { return harness.RenderText(w, r) }

// RenderCSV writes a report as CSV.
func RenderCSV(w io.Writer, r Report) error { return harness.RenderCSV(w, r) }

// RenderJSON writes a report as indented JSON.
func RenderJSON(w io.Writer, r Report) error { return harness.RenderJSON(w, r) }

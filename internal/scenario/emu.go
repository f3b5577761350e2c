package scenario

import (
	"errors"
	"fmt"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/faults"
	"netclone/internal/simcluster"
	"netclone/internal/udpemu"
)

// ErrSimOnly marks scenarios (or experiments) that need a capability
// only the simulator models — LAEDGE's coordinator tier, the
// congestion model, switch outages, timelines, tracing, client
// placement, ablation knobs. Callers sweeping many experiments
// over a non-sim backend can errors.Is against it to skip instead of
// abort.
var ErrSimOnly = errors.New("sim-only capability")

// EmuOption tunes the UDP-emulation backend.
type EmuOption func(*emuBackend)

// EmuMaxRate caps the per-scenario open-loop rate in requests per
// second. The simulator offers multi-MRPS loads that loopback sockets
// cannot absorb, so scenario rates above the cap are scaled down; the
// Result reports the rate actually offered. Default 4000.
func EmuMaxRate(rps float64) EmuOption {
	return func(b *emuBackend) { b.maxRate = rps }
}

// EmuTimeout bounds each request round trip (default 5s).
func EmuTimeout(d time.Duration) EmuOption {
	return func(b *emuBackend) { b.timeout = d }
}

// EmuStoreObjects sizes the emulated servers' shared key-value store
// (default 1<<16). KV-mix keys beyond the store return empty values but
// still measure a full round trip.
func EmuStoreObjects(n int) EmuOption {
	return func(b *emuBackend) { b.storeObjects = n }
}

// EmuIO pins the cluster's syscall discipline (DESIGN.md §12). The
// default udpemu.IOAuto batches with recvmmsg/sendmmsg where the
// platform supports it and falls back to per-packet I/O elsewhere;
// udpemu.IOPortable forces the per-packet reference path, e.g. for an
// A/B equivalence run.
func EmuIO(mode udpemu.IOMode) EmuOption {
	return func(b *emuBackend) { b.io = mode }
}

// emuBackend runs scenarios on the real-UDP loopback emulation.
type emuBackend struct {
	maxRate      float64
	timeout      time.Duration
	storeObjects int
	io           udpemu.IOMode
}

// Emu returns the UDP-emulation backend: the scenario's topology is
// instantiated as an in-process loopback cluster — a switch emulator,
// one kvstore-backed server per topology entry, and the scenario's
// clients — exercising the identical dataplane pipeline and wire format
// as the simulator over the kernel network stack.
//
// It is an emulator, not a performance testbed: loopback RTT jitter
// dwarfs the microsecond effects the paper measures, offered rates are
// capped (EmuMaxRate), the warmup window is skipped, and a synthetic
// service-time distribution is applied as its mean, a wall-clock due
// time per request (the per-request variability the paper studies needs
// the simulator's nanosecond clock). Use it to
// prove the protocol end-to-end and to compare the unified counters
// (clones, filter drops, clone drops, redundant responses) against the
// Sim backend; use Sim for latency figures.
//
// Supported schemes: Baseline, CClone (client-side duplicate sends),
// NetClone, NetCloneNoFilter, and NetCloneRackSched. LAEDGE needs a
// coordinator process the emulation does not provide. Multi-rack
// fabrics (WithRacks) run here: the switch and each remote rack's
// servers hold their datagrams for the compiled one-way inter-ToR delay. The
// socket-expressible fault kinds — loss windows (WithLoss/faults.Loss)
// and server crash/recover (faults.ServerCrash) — run here too, as
// wall-clock windows on the emu processes. Everything else that only the
// simulator models (congestion, switch outages, timelines, tracing,
// explicit client placement, ablation knobs) is rejected
// with an actionable error rather than silently ignored, and so is a
// client count the wire header's 16-bit ClientID cannot address (a
// server count its 16-bit Group cannot is rejected on both backends).
func Emu(opts ...EmuOption) Backend {
	b := &emuBackend{
		maxRate:      4000,
		timeout:      5 * time.Second,
		storeObjects: 1 << 16,
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Name implements Backend.
func (b *emuBackend) Name() string { return "emu" }

// Run implements Backend: validate, reject sim-only features, start the
// loopback cluster, drive the open loop, and reduce the counters into
// the unified Result.
func (b *emuBackend) Run(sc *Scenario) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	cfg, err := sc.Config().Normalized()
	if err != nil {
		return Result{}, err
	}
	if err := b.checkSupported(cfg); err != nil {
		return Result{}, err
	}

	dcfg, err := SwitchConfig(cfg.Scheme, cfg.FilterTables, cfg.FilterSlots, len(cfg.Workers))
	if err != nil {
		return Result{}, err
	}

	rate := cfg.OfferedRPS
	if rate > b.maxRate {
		rate = b.maxRate
	}
	requests := int(rate * float64(cfg.DurationNS) / 1e9)
	if requests < 20 {
		requests = 20
	}

	// A synthetic distribution becomes each server's fixed service time,
	// its mean: a response leaves when its FCFS service would end (see
	// the Emu doc for fidelity limits).
	var extraService time.Duration
	if cfg.Service != nil {
		extraService = time.Duration(cfg.Service.Mean())
	}
	cluster, err := udpemu.StartCluster(udpemu.ClusterConfig{
		Dataplane:        dcfg,
		Workers:          cfg.Workers,
		Racks:            emuRacks(cfg),
		Clients:          cfg.NumClients,
		StoreObjects:     b.storeObjects,
		ExtraServiceTime: extraService,
		Timeout:          b.timeout,
		Seed:             cfg.Seed,
		IO:               b.io,
		Faults:           emuFaults(cfg),
	})
	if err != nil {
		return Result{}, fmt.Errorf("emu backend: %w", err)
	}
	defer cluster.Close()

	runs, err := cluster.RunOpenLoop(udpemu.OpenLoopConfig{
		RatePerSec: rate,
		Requests:   requests,
		Mix:        cfg.Mix,
		Keyspace:   uint64(b.storeObjects),
		Duplicate:  cfg.Scheme == simcluster.CClone,
	})
	if err != nil {
		return Result{}, fmt.Errorf("emu backend: open loop: %w", err)
	}

	var sent, completed, inWindow int64
	var elapsed time.Duration
	for _, r := range runs {
		sent += int64(r.Sent)
		completed += r.Completed
		inWindow += r.CompletedInWindow
		if r.Elapsed > elapsed {
			elapsed = r.Elapsed
		}
	}
	counters := cluster.Counters()
	hist := cluster.MergedLatency()

	res := Result{Backend: "emu", ServerProcessed: counters.Processed}
	res.Scheme = cfg.Scheme
	res.OfferedRPS = rate
	// Sustained rate over the send window only: completions that settle
	// during the post-send drain would otherwise overstate throughput
	// against the sim's fixed-window counter.
	res.ThroughputRPS = float64(inWindow) / elapsed.Seconds()
	res.Latency = hist.Summarize()
	res.Hist = hist
	res.Switch = counters.Switch
	res.Generated = sent
	res.Completed = completed
	res.CloneDropsAtServer = counters.CloneDrops
	res.RedundantAtClient = counters.Redundant
	res.SendErrors = counters.SendErrors
	return res, nil
}

// emuRacks lays the scenario's fabric out as emu rack specs:
// every non-client rack's servers are reached across the compiled
// one-way inter-ToR delay. Single-rack fabrics return nil and attach
// every server straight to the switch socket.
func emuRacks(cfg simcluster.Config) []udpemu.RackSpec {
	if cfg.Topology.NumRacks() <= 1 {
		return nil
	}
	comp := cfg.Topology.Compile()
	racks := make([]udpemu.RackSpec, comp.Racks)
	for r := range racks {
		racks[r] = udpemu.RackSpec{
			Workers: comp.Workers[comp.RackFirstSID[r]:comp.RackFirstSID[r+1]],
			Delay:   time.Duration(comp.InterDelayNS[comp.ClientRack][r]),
		}
	}
	return racks
}

// emuFaults translates the scenario's fault plan into the emu
// cluster's wall-clock schedule. Window offsets map 1:1 from
// virtual time: the open loop sends rate x duration requests, so its
// send window spans the scenario duration. checkSupported has already
// rejected every kind the schedule cannot express.
func emuFaults(cfg simcluster.Config) *udpemu.FaultSchedule {
	if cfg.Faults.Empty() {
		return nil
	}
	fs := &udpemu.FaultSchedule{}
	for _, in := range cfg.Faults.Injections() {
		from, until := time.Duration(in.FromNS), time.Duration(in.UntilNS)
		switch in.Kind {
		case faults.KindLoss:
			fs.Loss = append(fs.Loss, udpemu.LossWindow{
				From: from, Until: until,
				StartProb: in.StartProb, EndProb: in.EndProb,
			})
		case faults.KindServerCrash:
			fs.Crashes = append(fs.Crashes, udpemu.CrashWindow{
				Target: in.Target, From: from, Until: until,
			})
		}
	}
	return fs
}

// SwitchConfig maps a scheme onto the emulated switch's data-plane
// configuration — the single source of truth shared by the Emu backend
// and the switch role of the netclone-emu binary. LAEDGE has no
// in-switch role and is rejected; C-Clone reduces the switch to plain
// forwarding because its duplication happens at the client.
func SwitchConfig(scheme simcluster.Scheme, filterTables, filterSlots, maxServers int) (dataplane.Config, error) {
	dcfg := dataplane.Config{
		MaxServers:   maxServers,
		FilterTables: filterTables,
		FilterSlots:  filterSlots,
	}
	switch scheme {
	case simcluster.Baseline, simcluster.CClone:
		// Plain group-based random forwarding.
	case simcluster.NetClone:
		dcfg.EnableCloning = true
		dcfg.EnableFiltering = true
	case simcluster.NetCloneNoFilter:
		dcfg.EnableCloning = true
	case simcluster.NetCloneRackSched:
		dcfg.EnableCloning = true
		dcfg.EnableFiltering = true
		dcfg.RackSched = true
	default:
		return dataplane.Config{}, fmt.Errorf("emu backend: scheme %s has no emulated switch role", scheme)
	}
	return dcfg, nil
}

// maxEmuClients is how many clients the emu cluster can tell apart: it
// numbers them uint16(i+1) in the wire header's 16-bit ClientID, so
// client 65,537 would share client 1's ID and receive its responses.
const maxEmuClients = 1 << 16

// checkSupported rejects scenario features only the simulator models.
// Multi-rack fabrics and the socket-expressible fault kinds (loss
// windows, server crash/recover) run on the emu cluster;
// everything else is rejected by name, with the setter that enabled it
// and the Sim() escape hatch.
func (b *emuBackend) checkSupported(cfg simcluster.Config) error {
	reject := func(feature string) error {
		return fmt.Errorf("emu backend: %s is modelled only by the Sim backend (%w); run this scenario with Sim()", feature, ErrSimOnly)
	}
	switch {
	case cfg.Scheme == simcluster.LAEDGE:
		return fmt.Errorf("emu backend: the LAEDGE scheme needs a coordinator process the emulation does not provide (%w); use Sim(), or Baseline/CClone/NetClone* schemes here", ErrSimOnly)
	case cfg.Scheme == simcluster.NetCloneSuppress || cfg.Scheme == simcluster.NetCloneAdaptive:
		return fmt.Errorf("emu backend: scheme %s reacts to the simulated congestion signal (%w); use Sim(), or plain NetClone here", cfg.Scheme, ErrSimOnly)
	case cfg.NumClients > maxEmuClients:
		return fmt.Errorf("emu backend: %d clients (WithClients) exceed the %d the wire header's 16-bit ClientID can address, so responses would reach the wrong client (%w); use at most %d here, or Sim()", cfg.NumClients, maxEmuClients, ErrSimOnly, maxEmuClients)
	case cfg.Congestion != nil:
		return reject("the congestion model (WithCongestion/WithLinkRate)")
	case cfg.Topology.PlacementExplicit():
		// The emu fabric always homes the clients on the default rack;
		// an explicitly placed scenario would otherwise run with the
		// wrong delays silently.
		return reject("explicit client placement (WithPlacement)")
	case cfg.TimelineBinNS > 0:
		return reject("timeline recording (WithTimeline)")
	case cfg.TraceRate > 0:
		return reject("flight-recorder tracing (WithTrace)")
	case cfg.DisableServerCloneDrop:
		return reject("disabling the server clone-drop guard (WithoutCloneDropGuard)")
	case cfg.SingleOrderingGroups:
		return reject("single-ordering groups (WithSingleOrderingGroups)")
	}
	for _, in := range cfg.Faults.Injections() {
		switch in.Kind {
		case faults.KindLoss, faults.KindServerCrash:
			// Socket-expressible: emuFaults schedules these on the emu
			// processes.
		case faults.KindServerSlowdown:
			return reject("the server-slowdown fault (faults.ServerSlowdown)")
		case faults.KindSwitchOutage:
			return reject("the switch-outage fault (faults.SwitchOutage)")
		default:
			return reject(fmt.Sprintf("the %s fault", in.Kind))
		}
	}
	return nil
}

package simcluster

import (
	"math"
	"math/rand/v2"
	"slices"

	"netclone/internal/dataplane"
	"netclone/internal/faults"
	"netclone/internal/simnet"
	"netclone/internal/stats"
	"netclone/internal/topology"
	"netclone/internal/trace"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// packet is one message in flight inside the simulation. The header is
// the same struct the real wire format encodes, so the simulated switch
// exercises the identical data-plane code as the UDP emulator. Packets
// are recycled through the cluster's freelist (pool.go); see there for
// the lifecycle rules.
type packet struct {
	hdr       wire.Header
	op        workload.OpKind
	direct    bool   // bypass NetClone processing (write requests, §5.5)
	traced    bool   // sampled by the flight recorder (trace.go discipline)
	cancelled bool   // killed by a server crash before it started (server.crash)
	coordID   int    // owning LÆDGE coordinator (multi-coordinator scale-out)
	srvEpoch  uint32 // owning server's crash epoch at admission (fault model)
}

// pktFIFO is an allocation-stable FIFO of packets: pops advance a head
// index instead of re-slicing, so the backing array is reused once the
// queue drains instead of leaking capacity behind the slice head (which
// would force one append-grow per steady-state cycle).
type pktFIFO struct {
	buf  []*packet
	head int
}

func (q *pktFIFO) len() int { return len(q.buf) - q.head }

func (q *pktFIFO) push(p *packet) { q.buf = append(q.buf, p) }

func (q *pktFIFO) pop() *packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil // release the reference
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > 32 && q.head > len(q.buf)/2:
		// A queue that never fully drains (a saturated server) would
		// otherwise grow its backing array by one slot per push for the
		// whole run. Compact once the dead prefix exceeds the live half:
		// each element is copied at most once per len/2 pops, so the
		// amortized cost stays O(1) and capacity stays bounded by twice
		// the high-water mark.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return p
}

// cluster wires the simulated nodes together.
type cluster struct {
	cfg  Config
	topo *topology.Compiled // the fabric routing table (1 rack when no fabric was declared)
	eng  *simnet.Engine

	sw      *switchNode    // clients' ToR: all NetClone processing happens here
	tors    []*switchNode  // one ToR per rack, topology order (tors[topo.ClientRack] == sw)
	coords  []*coordinator // LÆDGE only
	clients []client       // the client slab; a client event's x is its index
	servers []*server

	// The whole client population is one registered handler (events.go):
	// cliH's self is the cluster, and every client event names its
	// client by index in x, so a client costs no handler-table entry.
	cliH   node
	cliHid int32

	endGen   int64 // stop generating requests at this time
	deadline int64 // Run stops the engine here: endGen plus the drain slack

	// Per-send invariants of every client, hoisted out of the generation
	// loop: group count and arrival process are fixed once the clients'
	// ToR is built (no control-plane add/remove happens mid-run; switch
	// failure only clears soft state).
	numGroups int
	arrival   workload.Poisson

	// Per-hop delay sums and window bounds, hoisted out of the per-event
	// inner loops at build time (they are constants for the whole run).
	dSwLink    int64   // switch pass + one link hop
	dSwRecirc  int64   // switch pass + recirculation loopback
	dSwTrans   []int64 // switch pass + fabric hop between the client rack and rack r
	dLink      int64   // one link hop (Cal.LinkDelayNS)
	dDispatch  int64   // server dispatcher cost (Cal.DispatcherCostNS)
	dCliPkt    int64   // client per-packet RX/TX cost (Cal.ClientPktCostNS)
	dDedupMiss int64   // client dedup-miss cost (Cal.DedupMissCostNS)
	winStart   int64   // measurement window [winStart, winEnd)
	winEnd     int64
	isLaedge   bool

	// rankArrive and rankDispatch are the virtual-time ranks of a
	// server's arrivals and dispatches (vtRanks): 1 for the one filed
	// further ahead, 3 for the other.
	rankArrive, rankDispatch int64

	// Loss-window state, owned by the fault controller: inside a
	// window each link traversal drops with probability
	// lossBase + lossSlope*(now - lossFromNS) — slope 0 is the legacy
	// constant model, bit-identical draw for draw.
	lossActive bool
	lossBase   float64
	lossSlope  float64
	lossFromNS int64

	pktPool []*packet
	pktSlab *pktSlab // pooled backing of the primed freelist

	hist      *stats.Histogram
	timeline  *stats.TimeSeries
	generated int64
	completed int64

	lossRNG *rand.Rand
	lost    int64

	faults     *faultCtl // nil for fault-free runs
	degHist    *stats.Histogram
	faultDrops int64

	// cong executes the congestion model (finite egress-port queues,
	// ECN marking, tail-drop; congestion.go). Nil — the default — means
	// infinite link capacity, the exact pre-subsystem event sequence.
	cong *congCtl

	// rec is the flight recorder (internal/trace). Nil — the default —
	// means tracing is off: every recording site reduces to one
	// predictable branch on a packet flag, and the event order is
	// identical either way because recording is strictly observational.
	rec *trace.Recorder
	// tel is the engine telemetry probe; non-nil exactly when rec is.
	tel *simnet.Telemetry
}

// pktFlags derives the flight-recorder flag bits from a packet's header:
// FlagClone for switch-cloned copies (hdr.Clo survives the in-place
// response rewrite), FlagECN once the congestion model marked it.
func pktFlags(p *packet) uint8 {
	var f uint8
	if p.hdr.Clo == wire.CloClone {
		f |= trace.FlagClone
	}
	if p.hdr.ECN != 0 {
		f |= trace.FlagECN
	}
	return f
}

// record appends one flight-recorder event at the engine's current
// virtual time. Callers guard with p.traced (set only when a recorder
// exists), so the disabled path never reaches here.
func (c *cluster) record(k trace.Kind, p *packet, rack int, value, port int32) {
	c.recordFlags(k, p, rack, value, port, pktFlags(p))
}

// recordFlags is record with caller-supplied flag bits (the clone
// fan-out site stamps FlagClone onto the original's record).
func (c *cluster) recordFlags(k trace.Kind, p *packet, rack int, value, port int32, flags uint8) {
	c.rec.Record(trace.Event{
		At:     c.eng.Now(),
		Seq:    p.hdr.ClientSeq,
		Value:  value,
		Port:   port,
		Client: p.hdr.ClientID,
		Rack:   uint16(rack),
		Kind:   k,
		Flags:  flags,
	})
}

// maybeLose returns true (and counts) when a link traversal drops the
// packet under the active loss window. Outside a window no RNG is
// drawn, so fault-free runs consume the loss stream exactly as before
// the fault subsystem: not at all.
func (c *cluster) maybeLose() bool {
	if !c.lossActive {
		return false
	}
	p := c.lossBase
	if c.lossSlope != 0 {
		p += c.lossSlope * float64(c.eng.Now()-c.lossFromNS)
	}
	if c.lossRNG.Float64() < p {
		c.lost++
		return true
	}
	return false
}

// Run executes one experiment point. Every call owns all of its state —
// the event engine, every RNG stream, the data-plane instances, and the
// packet freelist hang off this cluster value, and no package-level
// state is mutated after init — so concurrent Run calls are race-free
// and each one is a pure function of cfg (internal/runner relies on
// both properties).
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return Result{}, err
	}
	c, err := build(cfg)
	if err != nil {
		return Result{}, err
	}

	// Fault injection: schedule the plan's timed transitions before the
	// load starts, so their sequence numbers (FIFO tie-breaks) land
	// where the pre-subsystem switch-failure events did.
	if c.faults != nil {
		c.faults.schedule()
	}

	c.startClients()
	// Drain slack: let in-flight requests complete so tail completions
	// inside the window are observed even when they finish processing
	// slightly after endGen. Latency recording is still window-gated.
	c.eng.RunUntil(c.deadline)

	res := c.result()
	// The cluster is dead once the result is extracted; hand the
	// switches' large register backings and the packet slab back for
	// the next build.
	for _, t := range c.tors {
		t.dp.Recycle()
	}
	c.release()
	return res, nil
}

// build assembles a cluster from an already-normalized config without
// starting the load. Split from Run so micro-benchmarks can drive a
// warm cluster directly.
func build(cfg Config) (*cluster, error) {
	spec := cfg.Topology
	if spec == nil {
		spec = topology.SingleRack(cfg.Workers)
	}
	c := &cluster{
		cfg:        cfg,
		topo:       spec.Compile(),
		eng:        getEngine(),
		hist:       stats.NewHistogram(),
		endGen:     cfg.WarmupNS + cfg.DurationNS,
		deadline:   cfg.WarmupNS + 2*cfg.DurationNS,
		lossRNG:    simnet.NewRNG(cfg.Seed, 400),
		dSwLink:    cfg.Cal.SwitchDelayNS + cfg.Cal.LinkDelayNS,
		dSwRecirc:  cfg.Cal.SwitchDelayNS + cfg.Cal.RecircDelayNS,
		dLink:      cfg.Cal.LinkDelayNS,
		dDispatch:  cfg.Cal.DispatcherCostNS,
		dCliPkt:    cfg.Cal.ClientPktCostNS,
		dDedupMiss: cfg.Cal.DedupMissCostNS,
		winStart:   cfg.WarmupNS,
		winEnd:     cfg.WarmupNS + cfg.DurationNS,
		isLaedge:   cfg.Scheme == LAEDGE,
	}
	c.rankArrive, c.rankDispatch = 1, 3
	if c.dDispatch > c.dSwLink {
		c.rankArrive, c.rankDispatch = 3, 1
	}
	if cfg.TimelineBinNS > 0 {
		c.timeline = stats.NewTimeSeries(cfg.TimelineBinNS)
	}
	if cfg.TraceRate > 0 {
		c.rec = getRecorder(cfg.TraceRate, cfg.TraceCap)
		// Gauge bins: ~256 samples across the whole run (including the
		// drain slack), capacity-bounded so sampling never allocates.
		bin := (cfg.WarmupNS + 2*cfg.DurationNS) / 256
		if bin < 1 {
			bin = 1
		}
		c.tel = simnet.NewTelemetry(bin, 512)
		c.eng.SetTelemetry(c.tel)
	}
	if err := c.buildSwitches(); err != nil {
		return nil, err
	}
	c.buildServers()
	if cfg.Scheme == LAEDGE {
		k := cfg.NumCoordinators
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			c.coords = append(c.coords, newCoordinator(c, i, k))
		}
	}
	c.buildClients()
	if inj := cfg.Faults.Injections(); len(inj) > 0 {
		c.faults = newFaultCtl(c, inj)
		c.degHist = stats.NewHistogram()
		// Faults active from t <= 0 flip their state now.
		c.faults.activateImmediate()
	}
	if cfg.Congestion != nil {
		c.cong = newCongCtl(c)
		if c.tel != nil {
			ctl := c.cong
			c.tel.Aux = func() int32 { return int32(ctl.totDepth) }
		}
	}
	c.primePackets()
	return c, nil
}

// primePackets seeds the freelist with one slab's worth of packets so
// steady-state traffic reaches its in-flight high-water mark without
// one heap allocation per packet along the way (pool.go). Traffic
// beyond the slab falls back to individual allocations exactly as
// before. Slabs cycle through a package pool across runs (newPacket
// zeroes on pop, so a recycled slab needs no clearing); recyclePackets
// hands them back at teardown.
func (c *cluster) primePackets() {
	ps, _ := pktSlabPool.Get().(*pktSlab)
	if ps == nil {
		ps = &pktSlab{
			slab: make([]packet, slabPackets),
			ptrs: make([]*packet, 0, slabPackets),
		}
	}
	ps.ptrs = ps.ptrs[:0]
	for i := range ps.slab {
		ps.ptrs = append(ps.ptrs, &ps.slab[i])
	}
	c.pktSlab = ps
	c.pktPool = ps.ptrs
}

// recyclePackets returns the packet slab to the package pool. Only
// valid once the cluster is dead: stale in-flight pointers into the
// slab must be unreachable before the next run reuses it.
func (c *cluster) recyclePackets() {
	ps := c.pktSlab
	if ps == nil {
		return
	}
	// The freelist may have grown past the slab with individually
	// allocated packets; drop the references so the pool pins nothing
	// but the slab itself.
	clear(c.pktPool)
	ps.ptrs = c.pktPool[:0]
	c.pktSlab, c.pktPool = nil, nil
	pktSlabPool.Put(ps)
}

// buildSwitches instantiates one ToR per rack of the compiled fabric.
// Every ToR runs the scheme's full program over the global server
// tables with its own switch ID; the switch-ID ownership rule is what
// keeps non-client ToRs from re-processing stamped packets (§3.7), so
// only the clients' ToR clones, filters, or tracks state. A transit ToR
// therefore never builds its group table or filter registers
// (dataplane builds them on a switch's first owned pass): each one
// costs its address table and a handful of small registers.
func (c *cluster) buildSwitches() error {
	dcfg := dataplane.Config{
		MaxServers:   maxInt(len(c.cfg.Workers), 2),
		FilterTables: c.cfg.FilterTables,
		FilterSlots:  c.cfg.FilterSlots,
	}
	switch c.cfg.Scheme {
	case NetClone, NetCloneSuppress, NetCloneAdaptive:
		// The congestion-reactive variants run the full NetClone data
		// plane; their clone gate sits in front of it (congestion.go).
		dcfg.EnableCloning, dcfg.EnableFiltering = true, true
	case NetCloneRackSched:
		dcfg.EnableCloning, dcfg.EnableFiltering, dcfg.RackSched = true, true, true
	case NetCloneNoFilter:
		dcfg.EnableCloning = true
	default: // Baseline, CClone, LAEDGE: plain forwarding only
	}
	// Every ToR is given the global server list in one control-plane
	// step; the clients' ToR alone goes on to build the n(n-1) groups.
	entries := make([]dataplane.ServerEntry, len(c.cfg.Workers))
	for sid := range entries {
		entries[sid] = dataplane.ServerEntry{SID: uint16(sid), Addr: uint32(sid)}
	}
	c.tors = make([]*switchNode, c.topo.Racks)
	c.dSwTrans = make([]int64, c.topo.Racks)
	for r := range c.tors {
		rcfg := dcfg
		rcfg.SwitchID = c.topo.SwitchIDs[r]
		dp, err := dataplane.New(rcfg)
		if err != nil {
			return err
		}
		if err := dp.InstallServers(entries); err != nil {
			return err
		}
		t := &switchNode{cl: c, dp: dp, rack: r}
		t.hid = t.h.register(c.eng, t)
		c.tors[r] = t
		c.dSwTrans[r] = c.cfg.Cal.SwitchDelayNS + c.topo.InterDelayNS[c.topo.ClientRack][r]
	}
	c.sw = c.tors[c.topo.ClientRack]
	return nil
}

// buildServers and buildClients allocate each entity kind as one slab
// (generators and the smallest pending ring inline, larger rings carved
// from one more; a server's slots and first requests, one worker's
// worth each, from two more), so building costs a fixed handful of
// allocations whatever the population.
func (c *cluster) buildServers() {
	slab := make([]server, len(c.cfg.Workers))
	c.servers = make([]*server, len(slab))
	workers := 0
	for _, w := range c.cfg.Workers {
		workers += w
	}
	free, pend := make([]int64, workers), make([]dataplane.Pending[admitted], workers)
	for sid, w := range c.cfg.Workers {
		s := &slab[sid]
		*s = server{
			cl:  c,
			sid: uint16(sid),
			tor: c.tors[c.topo.ServerRack[sid]],
		}
		s.pool.Init(free[:w:w], pend[:0:w])
		free, pend = free[w:], pend[w:]
		s.rng.Seed(c.cfg.Seed, 200+uint64(sid))
		s.hid = s.h.register(c.eng, s)
		c.servers[sid] = s
	}
}

func (c *cluster) buildClients() {
	n := c.cfg.NumClients
	perClient := c.cfg.OfferedRPS / float64(n)
	c.numGroups = maxInt(c.sw.dp.NumGroups(), 1)
	c.arrival = workload.Poisson{RatePerSec: perClient}
	c.cliHid = c.cliH.register(c.eng, c)
	ring := pendRingSizeFor(perClient)
	var rings []pendSlot
	if ring > pendRingMin {
		rings = make([]pendSlot, n*ring)
	}
	c.clients = make([]client, n)
	for i := range c.clients {
		cl := &c.clients[i]
		cl.cl, cl.idx = c, int32(i)
		if rings != nil {
			cl.pendRing = rings[i*ring : (i+1)*ring : (i+1)*ring]
		} else {
			cl.pendRing = cl.ring[:]
		}
		cl.rng.Seed(c.cfg.Seed, 100+uint64(i))
	}
}

// startClients schedules every client's first arrival, in index order.
func (c *cluster) startClients() {
	for i := range c.clients {
		c.clients[i].nextArrival(c.eng.Now())
	}
}

// arrive runs client x's open-loop arrival. Only arrivals before endGen
// are ever filed (client.nextArrival), so every one generates.
func (c *cluster) arrive(x int64) {
	c.clients[x].generate()
}

// recordCompletion registers a finished request completing at time t.
func (c *cluster) recordCompletion(t, latency int64) {
	c.completed++
	if c.timeline != nil {
		c.timeline.Add(t, 1)
	}
	if t >= c.winStart && t < c.winEnd {
		c.hist.Record(latency)
	}
	if c.degHist != nil && c.faults.inDegraded(t) {
		c.degHist.Record(latency)
	}
}

func (c *cluster) result() Result {
	res := Result{
		Scheme:       c.cfg.Scheme,
		OfferedRPS:   c.cfg.OfferedRPS,
		Latency:      c.hist.Summarize(),
		Hist:         c.hist,
		Generated:    c.generated,
		Completed:    c.completed,
		Timeline:     c.timeline,
		EngineEvents: int64(c.eng.Steps()),
	}
	// Throughput over the measurement window.
	var inWindow int64 = c.hist.Count()
	res.ThroughputRPS = float64(inWindow) / (float64(c.cfg.DurationNS) / 1e9)
	if c.sw != nil {
		res.Switch = c.sw.dp.Stats()
	}
	var emptyQ, total int64
	for _, s := range c.servers {
		res.CloneDropsAtServer += s.cloneDrops
		emptyQ += s.respEmptyQ
		total += s.respTotal
	}
	if total > 0 {
		res.EmptyQueueFrac = float64(emptyQ) / float64(total)
	}
	for i := range c.clients {
		res.RedundantAtClient += c.clients[i].redundant
	}
	for _, co := range c.coords {
		if co.queueMax > res.CoordQueueMax {
			res.CoordQueueMax = co.queueMax
		}
	}
	res.LostPackets = c.lost
	if c.faults != nil {
		res.Faults = c.faults.summary(c.degHist, c.faultDrops)
	}
	if c.cong != nil {
		res.Congestion = c.cong.summary(c.eng.Now())
	}
	if c.topo.Racks > 1 {
		res.Racks = make([]RackStats, c.topo.Racks)
		for r := range res.Racks {
			rs := RackStats{
				Rack:    r,
				Servers: c.topo.RackFirstSID[r+1] - c.topo.RackFirstSID[r],
				Switch:  c.tors[r].dp.Stats(),
			}
			for sid := c.topo.RackFirstSID[r]; sid < c.topo.RackFirstSID[r+1]; sid++ {
				rs.CloneDropsAtServer += c.servers[sid].cloneDrops
			}
			res.Racks[r] = rs
		}
	}
	if c.rec != nil {
		res.Trace = c.rec.Snapshot()
		res.Telemetry = &trace.Telemetry{
			EngineStats: trace.EngineStats{
				Events:      int64(c.eng.Steps()),
				Bursts:      c.tel.Bursts,
				MaxBurst:    c.tel.MaxBurst,
				SampleDrops: c.tel.SampleDrops,
			},
			Engine: c.engineSamples(),
			BinNS:  c.tel.BinNS,
		}
	}
	return res
}

// engineSamples exports the engine's time-binned occupancy gauges.
func (c *cluster) engineSamples() []trace.EngineSample {
	out := make([]trace.EngineSample, 0, len(c.tel.Samples))
	for _, s := range c.tel.Samples {
		out = append(out, trace.EngineSample{
			At: s.At, Pending: s.Pending, Overflow: s.Overflow, PortDepth: s.Aux,
		})
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Switch node

// switchNode wraps the data plane with the simulated forwarding fabric
// and the failure model. One exists per rack; the clients' ToR is the
// only one whose NetClone program ever matches (ownership rule, §3.7).
type switchNode struct {
	cl   *cluster
	dp   *dataplane.Switch
	h    node  // the registered handler (events.go)
	hid  int32 // its engine handler ID (typed scheduling)
	rack int
	down bool
}

func (s *switchNode) fail() {
	s.down = true
	// Soft state is lost on failure; match-action tables are restored by
	// the control plane during recovery (§3.6).
	s.dp.Reset()
}

func (s *switchNode) recover() { s.down = false }

// fromClient receives a request packet one link-delay after the client
// NIC transmitted it.
func (s *switchNode) fromClient(p *packet) {
	c := s.cl
	if s.down {
		c.faultDrops++
		c.freePacket(p)
		return
	}
	if c.maybeLose() {
		c.freePacket(p)
		return
	}
	if c.isLaedge {
		// Plain L3 hop to the owning coordinator.
		co := c.coords[p.coordID%len(c.coords)]
		c.eng.ScheduleAfter(c.dSwLink, co.hid, evCoArriveRequest, p, 0)
		return
	}
	if p.direct {
		// Write requests take the normal (non-NetClone) path: plain
		// forwarding to the group's first candidate (§5.5). A remote
		// candidate is still reached through the fabric — the L3 route
		// crosses the same spine the NetClone path does — so writes pay
		// the transit delay symmetrically with their responses.
		sid1, _, ok := s.dp.Group(int(p.hdr.Group) % maxInt(s.dp.NumGroups(), 1))
		if !ok {
			c.freePacket(p)
			return
		}
		if p.traced {
			c.record(trace.KindDispatch, p, s.rack, int32(sid1), -1)
		}
		if tor := c.servers[sid1].tor; tor != s {
			if c.cong != nil {
				c.congTransitReq(s.rack, tor.rack, int(sid1), p)
				return
			}
			c.eng.ScheduleAfter(c.dSwTrans[tor.rack], tor.hid, evSwTransitRequest, p, int64(sid1))
			return
		}
		if c.cong != nil {
			c.congToServer(int(sid1), p, c.dSwLink)
			return
		}
		c.servers[sid1].arrive(p, c.eng.Now()+c.dSwLink)
		return
	}
	res := s.dp.Process(&p.hdr)
	switch res.Act {
	case dataplane.ActForwardServer:
		if p.traced {
			c.record(trace.KindDispatch, p, s.rack, int32(res.DstSID), -1)
		}
		s.toServer(p, int(res.DstSID))
	case dataplane.ActCloneAndForward:
		// Congestion-reactive schemes may veto the clone (congestion.go);
		// the original still forwards as a plain request.
		if !s.cloneAdmitted(p, int(res.DstSID)) {
			if p.traced {
				c.record(trace.KindDispatch, p, s.rack, int32(res.DstSID), -1)
			}
			s.toServer(p, int(res.DstSID))
			return
		}
		if p.traced {
			c.record(trace.KindDispatch, p, s.rack, int32(res.DstSID), -1)
			c.recordFlags(trace.KindClone, p, s.rack, -1, -1, pktFlags(p)|trace.FlagClone)
		}
		// Capture the clone's fields before toServer: on a lossy link
		// toServer may free p, and the freelist may hand the same struct
		// back as the clone.
		op, traced := p.op, p.traced
		s.toServer(p, int(res.DstSID))
		clone := c.newPacket()
		clone.hdr, clone.op, clone.traced = res.Clone, op, traced
		c.eng.ScheduleAfter(c.dSwRecirc, s.hid, evSwRecirculate, clone, 0)
	case dataplane.ActDrop, dataplane.ActPassL3:
		// Dropped (no route) or not ours; nothing further in this model.
		c.freePacket(p)
	}
}

// toServer delivers a request over the switch->server link; a server
// homed on another rack is reached by transiting the spine and its own
// ToR first.
func (s *switchNode) toServer(p *packet, dst int) {
	c := s.cl
	if c.maybeLose() {
		c.freePacket(p)
		return
	}
	if tor := c.servers[dst].tor; tor != s {
		if c.cong != nil {
			c.congTransitReq(s.rack, tor.rack, dst, p)
			return
		}
		c.eng.ScheduleAfter(c.dSwTrans[tor.rack], tor.hid, evSwTransitRequest, p, int64(dst))
		return
	}
	if c.cong != nil {
		c.congToServer(dst, p, c.dSwLink)
		return
	}
	c.servers[dst].arrive(p, c.eng.Now()+c.dSwLink)
}

// transitRequest is the server-side ToR's handling of a stamped request:
// its NetClone program runs, sees a foreign switch ID, and falls through
// to plain L3 forwarding (§3.7).
func (s *switchNode) transitRequest(p *packet, dst int) {
	c := s.cl
	if s.down {
		c.faultDrops++
		c.freePacket(p)
		return
	}
	if c.maybeLose() {
		c.freePacket(p)
		return
	}
	if !p.direct {
		res := s.dp.Process(&p.hdr)
		if res.Act != dataplane.ActPassL3 {
			// The ownership rule failed — this would be double cloning.
			// Follow the (incorrect) decision so tests can detect it.
			if res.Act == dataplane.ActForwardServer || res.Act == dataplane.ActCloneAndForward {
				dst = int(res.DstSID)
			} else {
				c.freePacket(p)
				return
			}
		}
	}
	if c.cong != nil {
		c.congToServer(dst, p, c.dSwLink)
		return
	}
	c.servers[dst].arrive(p, c.eng.Now()+c.dSwLink)
}

// transitResponse is the server-side ToR's handling of a response headed
// for the client rack: pass-through, then the aggregation hop to the
// client-side ToR, where the real NetClone response processing happens.
func (s *switchNode) transitResponse(p *packet) {
	c := s.cl
	if s.down {
		c.faultDrops++
		c.freePacket(p)
		return
	}
	if c.maybeLose() {
		c.freePacket(p)
		return
	}
	if !p.direct {
		res := s.dp.Process(&p.hdr)
		if res.Act != dataplane.ActPassL3 && res.Act != dataplane.ActForwardClient {
			c.freePacket(p)
			return
		}
	}
	if c.cong != nil {
		c.congTransitResp(s.rack, p)
		return
	}
	c.eng.ScheduleAfter(c.dSwTrans[s.rack], c.sw.hid, evSwFromServer, p, 0)
}

// toClient delivers a response over the switch->client link.
func (s *switchNode) toClient(p *packet, dst int) {
	c := s.cl
	if c.maybeLose() {
		c.freePacket(p)
		return
	}
	if c.cong != nil {
		c.congToClient(dst, p, c.dSwLink)
		return
	}
	c.clients[dst].receive(p, c.eng.Now()+c.dSwLink)
}

// recirculate re-injects a clone into the ingress pipeline.
func (s *switchNode) recirculate(p *packet) {
	if s.down {
		s.cl.faultDrops++
		s.cl.freePacket(p)
		return
	}
	res := s.dp.Process(&p.hdr)
	if res.Act != dataplane.ActForwardServer {
		s.cl.freePacket(p)
		return
	}
	if p.traced {
		s.cl.record(trace.KindDispatch, p, s.rack, int32(res.DstSID), -1)
	}
	s.toServer(p, int(res.DstSID))
}

// fromServer receives a response packet from a worker server.
func (s *switchNode) fromServer(p *packet) {
	c := s.cl
	if s.down {
		c.faultDrops++
		c.freePacket(p)
		return
	}
	if c.maybeLose() {
		c.freePacket(p)
		return
	}
	if c.isLaedge {
		co := c.coords[p.coordID%len(c.coords)]
		c.eng.ScheduleAfter(c.dSwLink, co.hid, evCoArriveResponse, p, 0)
		return
	}
	if p.direct {
		s.toClient(p, int(p.hdr.ClientID))
		return
	}
	res := s.dp.Process(&p.hdr)
	switch res.Act {
	case dataplane.ActForwardClient:
		if p.traced {
			c.record(trace.KindWin, p, s.rack, int32(p.hdr.SID), -1)
		}
		s.toClient(p, int(p.hdr.ClientID))
	default:
		// Filtered redundant response (ActDrop) or malformed.
		if p.traced {
			c.record(trace.KindFilterDrop, p, s.rack, int32(p.hdr.SID), -1)
		}
		c.freePacket(p)
	}
}

// coordToServer forwards a coordinator-emitted dispatch through the
// plain L3 path to a worker server.
func (s *switchNode) coordToServer(p *packet, dst int) {
	if s.down {
		s.cl.faultDrops++
		s.cl.freePacket(p)
		return
	}
	if p.traced {
		s.cl.record(trace.KindDispatch, p, s.rack, int32(dst), -1)
	}
	if s.cl.cong != nil {
		s.cl.congToServer(dst, p, s.cl.dSwLink)
		return
	}
	s.cl.servers[dst].arrive(p, s.cl.eng.Now()+s.cl.dSwLink)
}

// coordToClient forwards a coordinator-emitted final response through
// the plain L3 path to a client.
func (s *switchNode) coordToClient(p *packet, dst int) {
	if s.down {
		s.cl.faultDrops++
		s.cl.freePacket(p)
		return
	}
	if p.traced {
		s.cl.record(trace.KindWin, p, s.rack, int32(p.hdr.SID), -1)
	}
	if s.cl.cong != nil {
		s.cl.congToClient(dst, p, s.cl.dSwLink)
		return
	}
	s.cl.clients[dst].receive(p, s.cl.eng.Now()+s.cl.dSwLink)
}

// ---------------------------------------------------------------------
// Server node

// server models a worker server: a dispatcher feeding an FCFS pool of
// worker threads (§4.2), in closed form (dataplane.FCFS). The hop that
// delivers a request admits it (server.arrive), so a server's only
// event is a request's finish. FuzzServerQueue holds it to the
// event-driven server it replaced.
type server struct {
	cl   *cluster
	h    node // the registered handler (events.go)
	sid  uint16
	hid  int32       // its engine handler ID
	tor  *switchNode // the server's home-rack ToR
	rng  simnet.RNG
	pool dataplane.FCFS[admitted] // in virtual time (vtRanks)
	plan []faults.Injection       // the fault plan's crashes and slowdowns of this server

	// epoch counts crashes: a packet admitted under an older epoch is
	// dead at its finish.
	epoch uint32
	// held are the requests, in arrival order, whose hop came before a
	// crash and whose arrival after its window: the crash admits them.
	held []heldReq

	finVT, finN int64 // the latest finish's virtual time, and the finishes run at it

	cloneDrops int64
	respEmptyQ int64
	respTotal  int64
}

// admitted is a request on a server's pool: its packet, and where the
// server's generator stood before it drew the request's service time.
type admitted struct {
	p    *packet
	mark rand.PCG
}

// heldReq is a request that reaches its server at at.
type heldReq struct {
	p  *packet
	at int64
}

// The engine runs one nanosecond's events in the order they were filed
// (DESIGN.md §6). The event-driven server's arrival was filed dSwLink
// ahead, a dispatch dDispatch ahead and a finish its service time
// ahead, so the pool keeps time in vtRanks per nanosecond: arrivals and
// dispatches take ranks 1 and 3 in the order of their leads, a finish
// rank 0, 2 or 4, before, between or after them.
const vtRanks = 5

// finishRank is the rank of a finish that took svc from a start at rank
// startRank. On a lead equal to an arrival's, the arrival's filer (the
// switch) is taken to run first; on one equal to a dispatch's, the
// earlier of the dispatch's filer (an arrival) and the start goes first.
func (c *cluster) finishRank(svc, startRank int64) (r int64) {
	if svc <= c.dSwLink {
		r += 2
	}
	if svc < c.dDispatch || svc == c.dDispatch && startRank > c.rankArrive {
		r += 2
	}
	return r
}

// crash takes the server down; work in service dies at its finish. The
// requests not yet started had drawn no service time in the event-driven
// server: the generator goes back to before the first of them, and each
// is cancelled (its finish frees it uncounted) and loses its start
// record. One still in the dispatcher is a fault drop, as when its
// dispatch came due by the deadline. Then the held requests that no
// later crash precedes arrive, into the empty pool.
func (s *server) crash() {
	c := s.cl
	s.epoch++
	t := c.eng.Now()
	now, first := t*vtRanks, true
	s.pool.Reset(now, func(e *dataplane.Pending[admitted]) {
		if first {
			s.rng.Rewind(e.Token.mark)
			first = false
		}
		p := e.Token.p
		p.cancelled = true
		if e.Ready >= now && e.Ready/vtRanks <= c.deadline {
			c.faultDrops++
		}
		if p.traced && e.Start/vtRanks <= c.deadline {
			c.rec.Retract(s.event(trace.KindServerStart, p, e.Start/vtRanks))
		}
	})
	n := 0
	for ; n < len(s.held) && !s.crashAhead(t, s.held[n].at); n++ {
		s.admit(s.held[n].p, s.held[n].at)
	}
	s.held = slices.Delete(s.held, 0, n)
}

// crashAhead reports whether a crash of s begins after now and by at.
func (s *server) crashAhead(now, at int64) bool {
	for _, in := range s.plan {
		if in.Kind == faults.KindServerCrash && now < in.FromNS && in.FromNS <= at {
			return true
		}
	}
	return false
}

// arrive takes request p, which the hop running now delivers to the
// server NIC at time at. Every hop delivers dSwLink ahead, so a server's
// arrivals come in the order their hops ran. A request that would arrive
// past the deadline never does. The crash state at at is read from the
// plan: its transitions, filed before any load, ran first on a tie with
// an arrival. A request whose hop precedes a crash and whose arrival
// follows its window waits for that crash to admit it (server.crash).
func (s *server) arrive(p *packet, at int64) {
	c := s.cl
	if at > c.deadline {
		c.freePacket(p)
		return
	}
	if len(s.plan) > 0 {
		if faults.DownAt(s.plan, int(s.sid), at) {
			c.faultDrops++
			c.freePacket(p)
			return
		}
		if s.crashAhead(c.eng.Now(), at) {
			s.held = append(s.held, heldReq{p, at})
			return
		}
	}
	s.admit(p, at)
}

// admit runs arrival p at at: past the stale-clone guard, it joins the
// pool, its service time slowed by the window holding its start, and
// its finish is filed. The guard reads the queue at at; the pool drops
// only the requests started before the engine's clock, which a finish
// due before at still counts. The finish is filed up to dSwLink before
// the event-driven arrival filed it, so at its nanosecond it runs ahead
// of the events filed in between: a convention, not a reproduction,
// under which no golden cell moves.
func (s *server) admit(p *packet, at int64) {
	c := s.cl
	if !dataplane.AdmitRequest(p.hdr.Clo, s.pool.Waiting(at*vtRanks+c.rankArrive), !c.cfg.DisableServerCloneDrop) {
		s.cloneDrops++
		if p.traced {
			c.rec.RecordAhead(s.event(trace.KindCloneDrop, p, at))
		}
		c.freePacket(p)
		return
	}
	if p.traced {
		c.rec.RecordAhead(s.event(trace.KindServerArrive, p, at))
	}
	p.srvEpoch = s.epoch
	mark := s.rng.Mark()
	svc := s.serviceTime(p.op)
	vs := s.pool.Admit(c.eng.Now()*vtRanks, (at+c.dDispatch)*vtRanks+c.rankDispatch, admitted{p, mark})
	start := vs / vtRanks
	if len(s.plan) > 0 {
		if f, ok := faults.SlowdownAt(s.plan, int(s.sid), start); ok {
			svc = int64(float64(svc) * f)
		}
	}
	end := start + svc
	vf := end*vtRanks + c.finishRank(svc, vs%vtRanks)
	s.pool.Hold(vf)
	if p.traced && start <= c.deadline {
		c.rec.RecordAhead(s.event(trace.KindServerStart, p, start))
	}
	c.eng.Schedule(end, s.hid, evSrvFinish, p, vf)
}

// event is s's trace record of kind k for p at time at.
func (s *server) event(k trace.Kind, p *packet, at int64) trace.Event {
	return trace.Event{
		At: at, Seq: p.hdr.ClientSeq, Value: int32(s.sid), Port: -1, Client: p.hdr.ClientID,
		Rack: uint16(s.tor.rack), Kind: k, Flags: pktFlags(p),
	}
}

func (s *server) serviceTime(op workload.OpKind) int64 {
	if s.cl.cfg.Mix != nil {
		return s.cl.cfg.Cost.Sample(op, &s.rng.Rand)
	}
	return s.cl.cfg.Service.Sample(&s.rng.Rand)
}

// finish completes p at virtual time vt and rewrites it into the
// response in place (pool.go lifecycle rules). It reports the queue the
// event-driven server read before pulling the next request: those
// dispatched before vt and starting after it, and of those starting at
// vt, the ones left to this and the later finishes at vt, each pulling
// one.
func (s *server) finish(p *packet, vt int64) {
	if p.srvEpoch != s.epoch {
		// A crash killed it in service (no response) or before.
		if !p.cancelled {
			s.cl.faultDrops++
		}
		s.cl.freePacket(p)
		return
	}
	if vt != s.finVT {
		s.finVT, s.finN = vt, 0
	}
	qlen := s.pool.Waiting(vt - 1)
	if s.finN > 0 {
		qlen = max(s.pool.Waiting(vt), qlen-int(s.finN))
	}
	s.finN++
	s.respTotal++
	if qlen == 0 {
		s.respEmptyQ++
	}
	if p.traced {
		s.cl.record(trace.KindServerFinish, p, s.tor.rack, int32(s.sid), -1)
	}

	// Build the response: the server fills SID and piggybacks its queue
	// state (§3.3 "Response packets").
	p.hdr.Type = wire.TypeResp
	p.hdr.SID = s.sid
	p.hdr.State = dataplane.ServerState(qlen, 0)
	if s.tor != s.cl.sw {
		// Remote rack: the response first hits the server's own ToR,
		// which passes it through to the clients' ToR (§3.7).
		s.cl.eng.ScheduleAfter(s.cl.dLink, s.tor.hid, evSwTransitResponse, p, 0)
	} else {
		s.cl.eng.ScheduleAfter(s.cl.dLink, s.cl.sw.hid, evSwFromServer, p, 0)
	}
}

// ---------------------------------------------------------------------
// Client node

// pendingReq tracks an outstanding request at the client.
type pendingReq struct {
	sentAt int64
	op     workload.OpKind
}

// Pending-request table. Client sequence numbers are assigned
// monotonically and requests complete within a small window, so the
// outstanding set lives in a power-of-two ring indexed by the low seq
// bits — a 3-instruction lookup instead of a map probe on every
// response. The table is an exact seq -> request map at every ring
// size, so sizing is purely a cost decision:
//
//   - rings are carved from one per-cluster slab (buildClients), sized
//     to the requests a client sends in pendHorizonNS at its own offered
//     rate — pendRingMax for the few-client scenarios, pendRingMin when
//     1e5 clients each send less than one request per run;
//   - a put that would lap a live slot doubles the ring (heap-allocated,
//     off the steady path) up to pendRingMax;
//   - at pendRingMax a lapped slot whose request never completed
//     (response lost) is displaced to the spill map, so nothing is
//     dropped; the spill map stays empty in loss-free steady state.
const (
	pendRingMin   = 4
	pendRingMax   = 64 // far above per-client in-flight peaks
	pendHorizonNS = 1e6
)

// pendRingSizeFor returns the initial ring size of a client offering
// perClientRPS requests per second.
func pendRingSizeFor(perClientRPS float64) int {
	size := pendRingMin
	for size < pendRingMax && float64(size) < perClientRPS*pendHorizonNS/1e9 {
		size *= 2
	}
	return size
}

// pendSlot is one ring entry: pendingReq's fields flattened beside the
// seq, so a slot is 16 bytes.
type pendSlot struct {
	sentAt int64
	seq    uint32
	op     workload.OpKind
	valid  bool
}

func (s *pendSlot) req() pendingReq { return pendingReq{sentAt: s.sentAt, op: s.op} }

// putPending records an outstanding request under seq.
func (c *client) putPending(seq uint32, req pendingReq) {
	s := &c.pendRing[seq&uint32(len(c.pendRing)-1)]
	if s.valid {
		s = c.lapPending(seq)
	}
	*s = pendSlot{sentAt: req.sentAt, seq: seq, op: req.op, valid: true}
}

// lapPending makes room for seq when its slot still holds a live
// request: it doubles the ring until the slot is free, and at
// pendRingMax spills the occupant. It returns seq's (free) slot.
func (c *client) lapPending(seq uint32) *pendSlot {
	for len(c.pendRing) < pendRingMax {
		grown := make([]pendSlot, 2*len(c.pendRing))
		mask := uint32(len(grown) - 1)
		for _, s := range c.pendRing {
			if s.valid {
				// Live seqs distinct modulo the old size stay distinct
				// modulo the new one.
				grown[s.seq&mask] = s
			}
		}
		c.pendRing = grown
		if s := &grown[seq&mask]; !s.valid {
			return s
		}
	}
	s := &c.pendRing[seq&(pendRingMax-1)]
	if c.pendSpill == nil {
		c.pendSpill = make(map[uint32]pendingReq)
	}
	c.pendSpill[s.seq] = s.req()
	return s
}

// takePending claims and removes the outstanding request for seq.
func (c *client) takePending(seq uint32) (pendingReq, bool) {
	s := &c.pendRing[seq&uint32(len(c.pendRing)-1)]
	if s.valid && s.seq == seq {
		s.valid = false
		return s.req(), true
	}
	if c.pendSpill != nil {
		if r, ok := c.pendSpill[seq]; ok {
			delete(c.pendSpill, seq)
			return r, true
		}
	}
	return pendingReq{}, false
}

// client is an open-loop load generator with a sender and a receiver
// thread (§4.2), each modelled as a FIFO resource with a per-packet cost:
// busy-until arithmetic, no events of their own (sendPacket, receive).
// Clients live in one slab (cluster.clients) and are not registered
// with the engine one by one: their arrivals go to the cluster's client
// handler with the client's index in x.
type client struct {
	cl      *cluster
	idx     int32 // index in cluster.clients; the low 16 bits are its ClientID
	nextSeq uint32
	rng     simnet.RNG

	pendRing    []pendSlot // power-of-two length; see the pending-request table
	pendSpill   map[uint32]pendingReq
	txBusyUntil int64
	rxBusyUntil int64
	redundant   int64

	// ring is the pendRingMin-slot ring, inline: pendRing starts on it
	// when the client's rate calls for no more.
	ring [pendRingMin]pendSlot
}

// nextArrival draws the gap to the client's next open-loop arrival and
// files it, unless it lands at or past endGen, where it would generate
// nothing. The gap is drawn either way, so the client's random stream
// does not depend on endGen.
func (c *client) nextArrival(now int64) {
	if at := now + c.cl.arrival.NextGap(&c.rng.Rand); at < c.cl.endGen {
		c.cl.eng.Schedule(at, c.cl.cliHid, evCliGenerate, nil, int64(c.idx))
	}
}

// generate creates one request (two packets under C-Clone) and schedules
// the next arrival.
func (c *client) generate() {
	now := c.cl.eng.Now()
	c.cl.generated++

	op := workload.OpGet
	var key uint64
	if c.cl.cfg.Mix != nil {
		op, key = c.cl.cfg.Mix.Next(&c.rng.Rand)
	}
	_ = key // the simulated server does not need the key, only the op kind

	seq := c.nextSeq
	c.nextSeq++
	c.putPending(seq, pendingReq{sentAt: now, op: op})

	// Flight-recorder sampling is a pure function of the sequence
	// number — no RNG draw — so the decision cannot shift any stream.
	traced := c.cl.rec != nil && c.cl.rec.Traced(seq)

	switch c.cl.cfg.Scheme {
	case CClone:
		// Duplicate to two distinct random servers; both plain requests.
		n := len(c.cl.servers)
		s1 := c.rng.IntN(n)
		s2 := c.rng.IntN(n - 1)
		if s2 >= s1 {
			s2++
		}
		p1 := c.makeRequest(seq, op, c.groupWithFirst(s1), false)
		p2 := c.makeRequest(seq, op, c.groupWithFirst(s2), false)
		if traced {
			p1.traced, p2.traced = true, true
			c.cl.record(trace.KindIssue, p1, c.cl.topo.ClientRack, -1, -1)
			c.cl.recordFlags(trace.KindClone, p2, c.cl.topo.ClientRack, -1, -1, trace.FlagClone)
		}
		c.sendPacket(p1, now)
		c.sendPacket(p2, now)
	default:
		grp := c.pickGroup()
		direct := op == workload.OpSet // writes are never cloned (§5.5)
		p := c.makeRequest(seq, op, grp, direct)
		if traced {
			p.traced = true
			c.cl.record(trace.KindIssue, p, c.cl.topo.ClientRack, -1, -1)
		}
		if k := len(c.cl.coords); k > 0 {
			p.coordID = c.rng.IntN(k)
		}
		c.sendPacket(p, now)
	}

	c.nextArrival(now)
}

// pickGroup selects the client's random group ID. In normal operation it
// is uniform over all ordered pairs; under the SingleOrderingGroups
// ablation only pairs with sid1 < sid2 are used.
func (c *client) pickGroup() uint16 {
	for {
		g := uint16(c.rng.IntN(c.cl.numGroups))
		if !c.cl.cfg.SingleOrderingGroups {
			return g
		}
		s1, s2, ok := c.cl.sw.dp.Group(int(g))
		if ok && s1 < s2 {
			return g
		}
	}
}

// groupWithFirst picks a random group whose first candidate is server i,
// so the plain-forwarding switch delivers the packet to that server.
// Group IDs with first candidate i occupy [i*(n-1), (i+1)*(n-1)) — the
// layout dataplane.GroupsWithFirst documents — hoisted to arithmetic
// here to keep the per-send path free of switch lookups.
func (c *client) groupWithFirst(i int) uint16 {
	span := len(c.cl.servers) - 1
	if span <= 0 {
		return 0
	}
	return uint16(i*span + c.rng.IntN(span))
}

func (c *client) makeRequest(seq uint32, op workload.OpKind, grp uint16, direct bool) *packet {
	p := c.cl.newPacket()
	p.hdr = wire.Header{
		Type:      wire.TypeReq,
		Group:     grp,
		Idx:       uint8(c.rng.IntN(c.cl.cfg.FilterTables)),
		ClientID:  uint16(c.idx),
		ClientSeq: seq,
		PktTotal:  1,
	}
	p.op = op
	p.direct = direct
	return p
}

// sendPacket charges the sender thread and puts the packet on the wire.
func (c *client) sendPacket(p *packet, now int64) {
	start := now
	if c.txBusyUntil > start {
		start = c.txBusyUntil
	}
	done := start + c.cl.dCliPkt
	c.txBusyUntil = done
	c.cl.eng.Schedule(done+c.cl.dLink, c.cl.sw.hid, evSwFromClient, p, 0)
}

// receive is the receiver thread taking response p, which reaches the
// client NIC at time t. Like the sender, the receiver is a FIFO server
// with fixed costs, so it is busy-until arithmetic: p's RX starts at
// max(t, rxBusyUntil) and takes ClientPktCostNS, plus DedupMissCostNS
// when p's request already completed — the client-side overhead that
// response filtering exists to remove (§3.5, Fig 15).
//
// Every caller passes its clock plus dSwLink as t, so one client's
// calls come in nondecreasing t, in the order the engine would have
// dispatched the arrivals: the claims below happen in FIFO order and a
// twin arriving second still misses. Each effect counts only if
// the engine would have reached it by the deadline — the ECN mark at t,
// the completion or redundant response at the end of RX — while the
// claim is always made, since only later claims of the same seq see it.
// FuzzClientReceiver holds this to the event-driven receiver it
// replaced.
func (c *client) receive(p *packet, t int64) {
	cl := c.cl
	if cl.cong != nil && p.hdr.ECN != 0 && t <= cl.deadline {
		cl.cong.markedAtClients++
	}
	req, hit := c.takePending(p.hdr.ClientSeq)
	finish := max(t, c.rxBusyUntil) + cl.dCliPkt
	if !hit {
		finish += cl.dDedupMiss
	}
	c.rxBusyUntil = finish
	if finish > cl.deadline {
		cl.freePacket(p)
		return
	}
	kind, value := trace.KindRedundant, int32(p.hdr.SID)
	if hit {
		lat := finish - req.sentAt
		cl.recordCompletion(finish, lat)
		kind, value = trace.KindComplete, int32(min(lat, math.MaxInt32))
	} else {
		c.redundant++
	}
	if p.traced {
		// The end of RX lies ahead of the clock: the recorder files it
		// into its ring once the clock gets there.
		cl.rec.RecordAhead(trace.Event{
			At:     finish,
			Seq:    p.hdr.ClientSeq,
			Value:  value,
			Port:   -1,
			Client: p.hdr.ClientID,
			Rack:   uint16(cl.topo.ClientRack),
			Kind:   kind,
			Flags:  pktFlags(p),
		})
	}
	cl.freePacket(p)
}

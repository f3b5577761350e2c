package simcluster

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"netclone/internal/faults"
	"netclone/internal/simnet"
	"netclone/internal/topology"
	"netclone/internal/trace"
)

// Parallel-in-time sharded execution (DESIGN.md §10). The cluster is
// partitioned by rack: each shard owns a disjoint set of ToRs plus
// their servers (and a round-robin slice of the clients), runs them on
// its own stamped event engine, and advances under conservative time
// windows — a shard may process every event at or before
// min(peer clock + lookahead) because the fabric's positive cross-shard
// link delays guarantee nothing earlier can still arrive. Cross-shard
// packets travel through SPSC mailboxes carrying their full stamped
// ordering key (simnet.Xmsg), so each engine's dispatch order — and
// therefore the run's output — is a pure function of the configuration,
// independent of shard count, thread interleaving, and window shape.
//
// All cross-shard traffic is a star centered on the shard that owns the
// clients' ToR (shard 0): requests flow client-shard → sw, transits
// flow sw ↔ rack shards, responses flow sw → client shards. Rack shards
// never talk to each other, so the lookahead matrix reduces to two
// vectors against shard 0.

// shardMailboxCap is the initial per-pair mailbox capacity. The
// parallel driver backpressures on a full ring (the consumer drains
// every window); the serial driver marks rings unbounded instead, since
// one goroutine cannot drain its own backpressure.
const shardMailboxCap = 1024

// xmsgFreePacket marks a mailbox message as a packet-pool return
// rather than a simulation event (Hid is otherwise a non-negative
// handler ID). Clones are allocated from shard 0's pool but a clone
// dropped at a busy server is freed into that server's shard — a
// steady one-way drift that would drain shard 0's freelist (one heap
// allocation per drifted packet) and grow the rack shards' pools
// without bound. Each window, shards push their surplus back to
// shard 0 through the same mailboxes, restoring the sequential
// engine's zero-alloc steady state.
const xmsgFreePacket = int32(-1)

// poolReturnWater is the per-shard freelist size above which surplus
// packets are returned to shard 0: the primed slab size, so each shard
// keeps its seeded headroom local and everything the drift piles on
// top flows back.
const poolReturnWater = slabPackets

// inEdge is one inbound cross-shard edge: the sending shard, the
// minimum delay any of its messages adds to its published clock, and
// the mailbox they arrive through.
type inEdge struct {
	from int
	look int64
	mb   *simnet.Mailbox
}

// shardedCluster runs n shard clusters under conservative time-window
// synchronization.
type shardedCluster struct {
	cfg  Config
	topo *topology.Compiled
	n    int

	rackShard   []int // rack -> owning shard (clients' rack -> 0)
	clientShard []int // client -> owning shard (round-robin)

	shards   []*cluster
	clocks   []simnet.Clock // published per-shard progress, init -1
	inTo     [][]inEdge     // inTo[s]: edges into shard s
	outTo    [][]*simnet.Mailbox
	deadline int64
}

// effectiveShards resolves the shard count a normalized config actually
// runs with: cfg.Shards clamped to the rack count, and 1 — the
// sequential engine, byte-identical to every run before this subsystem
// existed — whenever the model needs globally ordered state that the
// star-topology lookahead cannot shard:
//
//   - congestion (spine-egress port chains hand packets off with zero
//     lookahead),
//   - loss or jitter windows and the legacy LossProb knob (one global
//     RNG stream drawn in whole-run event order),
//   - breakdown sampling (every N-th *globally* generated request),
//   - LÆDGE (coordinators centralize all traffic anyway),
//   - fewer than two racks (nothing to partition).
func effectiveShards(cfg Config) int {
	n, _ := shardPlan(cfg)
	return n
}

// shardPlan is effectiveShards with its reasoning attached: when a
// Shards >= 2 request resolves to a sequential run, the second return
// names the specific condition (ShardInfo.Fallback, surfaced by
// RunInfo so the silent fallback is diagnosable). Empty when sharding
// was not requested or actually happens.
func shardPlan(cfg Config) (int, string) {
	n := cfg.Shards
	if n < 2 {
		return 1, ""
	}
	spec := cfg.CanonicalTopology()
	if spec == nil {
		return 1, "no multi-rack topology is configured"
	}
	racks := spec.NumRacks()
	if racks < 2 {
		return 1, "the topology has fewer than two racks"
	}
	if n > racks {
		n = racks
	}
	if n > 1<<6 { // the engine's stamp-ID space (stampIDBits)
		n = 1 << 6
	}
	if cfg.Scheme == LAEDGE {
		return 1, "LÆDGE centralizes all traffic at its coordinators"
	}
	if cfg.Congestion != nil {
		return 1, "the congestion model needs one global event order"
	}
	if cfg.SampleEvery > 0 {
		return 1, "breakdown sampling counts globally generated requests"
	}
	for _, in := range canonicalFaults(cfg) {
		switch in.Kind {
		case faults.KindLoss:
			return 1, "loss windows draw one global RNG stream"
		case faults.KindJitter:
			return 1, "jitter windows draw one global RNG stream"
		case faults.KindCoordinatorCrash:
			return 1, "coordinator-crash faults imply centralized traffic"
		}
	}
	// The client-edge lookaheads must be positive or the window protocol
	// cannot advance; the per-rack transit delays are checked against
	// the compiled fabric in buildSharded.
	if cfg.Cal.ClientPktCostNS+cfg.Cal.LinkDelayNS <= 0 ||
		cfg.Cal.SwitchDelayNS+cfg.Cal.LinkDelayNS <= 0 {
		return 1, "a client-edge delay is non-positive (no lookahead)"
	}
	return n, ""
}

// buildSharded assembles n shard clusters over one compiled topology.
// Returns (nil, nil) when a compiled inter-rack delay turns out
// non-positive — the caller falls back to the sequential engine.
func buildSharded(cfg Config, n int) (*shardedCluster, error) {
	spec := cfg.CanonicalTopology() // non-nil: effectiveShards needs >= 2 racks
	topo := spec.Compile()
	sc := &shardedCluster{
		cfg:      cfg,
		topo:     topo,
		n:        n,
		deadline: cfg.WarmupNS + 2*cfg.DurationNS,
	}
	// Rack r goes to shard ((r - ClientRack) mod racks) mod n, which
	// pins the clients' rack — and with it the sw ToR, the star center —
	// to shard 0 and spreads the rest evenly.
	sc.rackShard = make([]int, topo.Racks)
	for r := range sc.rackShard {
		sc.rackShard[r] = ((r-topo.ClientRack)%topo.Racks + topo.Racks) % topo.Racks % n
	}
	sc.clientShard = make([]int, cfg.NumClients)
	for i := range sc.clientShard {
		sc.clientShard[i] = i % n
	}

	sc.shards = make([]*cluster, n)
	for s := range sc.shards {
		cl := newClusterShell(cfg, topo)
		cl.shard, cl.sc = s, sc
		if cl.rec != nil {
			cl.rec.SetShard(uint8(s))
		}
		cl.eng.EnableStamp(uint64(s))
		sc.shards[s] = cl
	}
	if err := sc.shards[0].populate(); err != nil {
		sc.release()
		return nil, err
	}

	// The lookahead vectors against shard 0. Every shard owns at least
	// one rack (n <= racks, round-robin), so both mins are finite.
	p := sc.shards[0]
	dCliUp := p.dCliPkt + p.dLink // client NIC -> sw arrival floor
	hasClient := make([]bool, n)
	for _, s := range sc.clientShard {
		hasClient[s] = true
	}
	lookTo0 := make([]int64, n) // shard s -> shard 0
	look0to := make([]int64, n) // shard 0 -> shard s
	for s := 1; s < n; s++ {
		lookTo0[s], look0to[s] = math.MaxInt64, math.MaxInt64
		if hasClient[s] {
			lookTo0[s] = dCliUp
			look0to[s] = p.dSwLink
		}
	}
	for r, s := range sc.rackShard {
		if s == 0 {
			continue
		}
		if d := p.dSwTrans[r]; d < lookTo0[s] {
			lookTo0[s] = d
		}
		if d := p.dSwTrans[r]; d < look0to[s] {
			look0to[s] = d
		}
	}
	for s := 1; s < n; s++ {
		if lookTo0[s] <= 0 || look0to[s] <= 0 {
			// A zero-delay cross-shard edge: the window protocol could
			// never advance past it. Sequential fallback.
			sc.release()
			return nil, nil
		}
	}

	sc.clocks = make([]simnet.Clock, n)
	for s := range sc.clocks {
		sc.clocks[s].Store(-1) // "nothing processed yet", incl. t=0
	}
	sc.outTo = make([][]*simnet.Mailbox, n)
	for s := range sc.outTo {
		sc.outTo[s] = make([]*simnet.Mailbox, n)
	}
	sc.inTo = make([][]inEdge, n)
	for s := 1; s < n; s++ {
		up := simnet.NewMailbox(shardMailboxCap)
		down := simnet.NewMailbox(shardMailboxCap)
		sc.outTo[s][0], sc.outTo[0][s] = up, down
		sc.inTo[0] = append(sc.inTo[0], inEdge{from: s, look: lookTo0[s], mb: up})
		sc.inTo[s] = append(sc.inTo[s], inEdge{from: 0, look: look0to[s], mb: down})
	}
	return sc, nil
}

// release returns every shard's pooled parts (cluster.release).
func (sc *shardedCluster) release() {
	for _, c := range sc.shards {
		c.release()
	}
}

// drive attempts one conservative window for shard s: read peer clocks,
// drain inbound mailboxes (strictly after the clock reads — a peer
// publishes its clock only after pushing everything the published
// window sent, so the drain is guaranteed to hold every message at or
// before the bound), run the engine to the bound, publish. Returns
// whether any progress was made and whether the shard (and everything
// feeding it) has reached the deadline. Allocation-free in steady
// state; safe to call from one goroutine per shard, or round-robin from
// a single goroutine.
func (sc *shardedCluster) drive(s int) (progressed, done bool) {
	c := sc.shards[s]
	bound := sc.deadline
	minPeer := int64(math.MaxInt64)
	for i := range sc.inTo[s] {
		e := &sc.inTo[s][i]
		pc := sc.clocks[e.from].Load()
		if pc < minPeer {
			minPeer = pc
		}
		if b := pc + e.look; b < bound {
			bound = b
		}
	}
	if minPeer >= sc.deadline {
		// Every feeder is finished: after this drain nothing more can
		// arrive, so the shard may run out its queue to the deadline.
		bound = sc.deadline
	}
	drained := 0
	for i := range sc.inTo[s] {
		e := &sc.inTo[s][i]
		for {
			msg, ok := e.mb.Pop()
			if !ok {
				break
			}
			drained++
			if msg.Hid == xmsgFreePacket {
				c.pktPool = append(c.pktPool, msg.Arg.(*packet))
				continue
			}
			c.eng.ScheduleStamped(msg.At, msg.S1, msg.S2, msg.S3, msg.Seq, msg.Hid, msg.Kind, msg.Arg, msg.X)
		}
	}
	if drained > c.mboxPeak {
		c.mboxPeak = drained
	}
	cur := sc.clocks[s].Load()
	if bound > cur {
		c.winRounds++
		c.eng.RunUntil(bound)
		if s != 0 && len(c.pktPool) > poolReturnWater {
			// Pool rebalance (see xmsgFreePacket). Before the clock
			// publish, so the pushes ride the same happens-before edge
			// as the window's event messages.
			mb := sc.outTo[s][0]
			for len(c.pktPool) > poolReturnWater {
				n := len(c.pktPool) - 1
				p := c.pktPool[n]
				c.pktPool[n] = nil
				c.pktPool = c.pktPool[:n]
				mb.Push(simnet.Xmsg{Hid: xmsgFreePacket, Arg: p})
			}
		}
		sc.clocks[s].Store(bound)
		cur = bound
		progressed = true
	} else if cur < sc.deadline {
		c.winStalls++ // lookahead exhausted: waiting on a peer's clock
	}
	return progressed, cur >= sc.deadline && minPeer >= sc.deadline
}

// run drives every shard to the deadline: one goroutine per shard when
// the runtime has parallelism to give them, a deterministic round-robin
// loop otherwise (same result either way — the event order is carried
// by the stamps, not the schedule).
func (sc *shardedCluster) run() {
	if runtime.GOMAXPROCS(0) <= 1 {
		sc.runSerial()
		return
	}
	var wg sync.WaitGroup
	for s := range sc.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				progressed, done := sc.drive(s)
				if done {
					return
				}
				if !progressed {
					runtime.Gosched()
				}
			}
		}(s)
	}
	wg.Wait()
}

// runSerial round-robins every shard on the calling goroutine. The
// mailboxes are switched to unbounded growth first: with producer and
// consumer on one goroutine, a full-ring spin could never be drained.
func (sc *shardedCluster) runSerial() {
	for _, row := range sc.outTo {
		for _, mb := range row {
			if mb != nil {
				mb.SetUnbounded(true)
			}
		}
	}
	for {
		allDone, progressed := true, false
		for s := range sc.shards {
			p, d := sc.drive(s)
			progressed = progressed || p
			allDone = allDone && d
		}
		if allDone {
			return
		}
		if !progressed {
			panic("simcluster: sharded driver stalled — a cross-shard edge lost its lookahead")
		}
	}
}

// result merges the per-shard aggregates into shard 0 and extracts the
// single Result the sequential engine would have produced: histograms
// and timelines add bin-wise, counters sum, per-entity statistics are
// read from the shared node slices (safe once every shard goroutine has
// joined), per-rack rollups and switch stats come from the shared ToRs,
// and the fault summary's global counters are recomputed by statically
// replaying the (time-sorted) transition list — each shard only counted
// the transitions it owned.
func (sc *shardedCluster) result() Result {
	p := sc.shards[0]
	for _, c := range sc.shards[1:] {
		p.hist.Merge(c.hist)
		if p.timeline != nil && c.timeline != nil {
			p.timeline.Merge(c.timeline)
		}
		p.generated += c.generated
		p.completed += c.completed
		p.lost += c.lost
		p.faultDrops += c.faultDrops
		if p.degHist != nil && c.degHist != nil {
			p.degHist.Merge(c.degHist)
		}
	}
	if p.faults != nil {
		p.faults.replayCounters(sc.deadline)
	}
	res := p.result()
	for _, c := range sc.shards[1:] {
		res.EngineEvents += int64(c.eng.Steps())
	}
	if p.rec != nil {
		// p.result() snapshotted shard 0 only; replace with the merged
		// all-shard view.
		res.Trace = sc.mergedTrace()
		res.Telemetry = sc.mergedTelemetry()
	}
	return res
}

// mergedTrace concatenates the per-shard flight-recorder rings in shard
// order and stable-sorts by virtual time, so same-instant records keep
// shard order and the merge is deterministic.
func (sc *shardedCluster) mergedTrace() *trace.Data {
	d := &trace.Data{Rate: sc.shards[0].rec.Rate()}
	for _, c := range sc.shards {
		s := c.rec.Snapshot()
		d.Events = append(d.Events, s.Events...)
		d.Dropped += s.Dropped
	}
	sort.SliceStable(d.Events, func(i, j int) bool { return d.Events[i].At < d.Events[j].At })
	return d
}

// mergedTelemetry gathers every shard's counters and gauge samples.
func (sc *shardedCluster) mergedTelemetry() *trace.Telemetry {
	t := &trace.Telemetry{BinNS: sc.shards[0].tel.BinNS}
	for _, c := range sc.shards {
		t.Shards = append(t.Shards, c.shardStats())
		t.Engine = append(t.Engine, c.engineSamples()...)
	}
	sort.SliceStable(t.Engine, func(i, j int) bool { return t.Engine[i].At < t.Engine[j].At })
	return t
}

// runSharded executes one experiment point across n shards. ok reports
// whether the sharded path ran at all — false (with no error) means a
// compiled zero-lookahead edge forced the caller's sequential fallback.
// A non-nil info receives the per-shard engine-event split.
func runSharded(cfg Config, n int, info *ShardInfo) (res Result, ok bool, err error) {
	sc, err := buildSharded(cfg, n)
	if err != nil {
		return Result{}, false, err
	}
	if sc == nil {
		return Result{}, false, nil
	}
	for _, c := range sc.shards {
		if c.faults != nil {
			c.faults.schedule()
		}
	}
	// Clients start in global index order so each shard's build-time
	// sequence numbers are the sequential order restricted to its own
	// roots — the property the stamp tie-break bottoms out on.
	for _, cl := range sc.shards[0].clients {
		cl.start()
	}
	sc.run()
	res = sc.result()
	if info != nil {
		info.ShardEvents = make([]int64, len(sc.shards))
		for s, c := range sc.shards {
			info.ShardEvents[s] = int64(c.eng.Steps())
		}
	}
	for _, t := range sc.shards[0].tors {
		t.dp.Recycle()
	}
	sc.release()
	return res, true, nil
}

// ownerForRack returns the shard cluster owning rack r's ToR and
// servers (the cluster itself in sequential runs).
func (c *cluster) ownerForRack(r int) *cluster {
	if c.sc == nil {
		return c
	}
	return c.sc.shards[c.sc.rackShard[r]]
}

// ownerForClient returns the shard cluster owning client i.
func (c *cluster) ownerForClient(i int) *cluster {
	if c.sc == nil {
		return c
	}
	return c.sc.shards[c.sc.clientShard[i]]
}

// xSchedule schedules a typed event on the engine owning the target
// entity: locally when the target shares this cluster's engine, through
// the cross-shard mailbox otherwise. The mailbox message carries the
// exact stamp and sequence number the event would have received had the
// whole run been sequential, which is what keeps the receiving engine's
// dispatch order equivalent.
func (c *cluster) xSchedule(target *cluster, t int64, hid int32, kind uint8, p *packet, x int64) {
	if target == c {
		c.eng.Schedule(t, hid, kind, p, x)
		return
	}
	s1, s2, s3, seq := c.eng.MintStamp()
	c.sc.outTo[c.shard][target.shard].Push(simnet.Xmsg{
		At: t, S1: s1, S2: s2, S3: s3, Seq: seq,
		X: x, Arg: p, Hid: hid, Kind: kind,
	})
}

// xScheduleAfter is xSchedule at now+d (d is non-negative at every
// call site: the hoisted per-hop delay constants).
func (c *cluster) xScheduleAfter(target *cluster, d int64, hid int32, kind uint8, p *packet, x int64) {
	c.xSchedule(target, c.eng.Now()+d, hid, kind, p, x)
}

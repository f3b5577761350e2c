package simcluster

import (
	"netclone/internal/simnet"
	"netclone/internal/trace"
)

// Congestion executor: compiles a validated congestion.Spec into
// per-egress-port FIFO queues served by typed evPortDepart events —
// the same declarative-plan-to-typed-events discipline as faults.go.
//
// Every congested hop routes through exactly one egress port (two for
// a fabric crossing: the source ToR's uplink, then the spine egress
// toward the destination rack, chained inline without an intermediate
// event). A packet arriving at a full port is tail-dropped; otherwise
// it joins the FIFO, is ECN-marked when the post-arrival occupancy
// exceeds the threshold, waits for the link, and occupies it for one
// serialization time. The hop's legacy delay is paid in full after
// departure (portEntry.post), so observed latency decomposes as
// legacy propagation + serialization + queueing and the nil-spec path
// stays byte-identical.
//
// Modeled ports: ToR->server down-ports, ToR->client down-ports, ToR
// uplinks, and spine egress ports (one per destination rack). Host
// NICs (client->ToR, server->ToR), the clone recirculation loopback,
// and the ToR<->coordinator host links keep their legacy constant
// delays: the model covers switch egress contention, not end-host
// scheduling.
//
// The steady path allocates nothing: port rings are sized to the queue
// capacity at build time (tail-drop bounds occupancy, so they never
// grow), departures are typed events with a nil payload, and all
// counters are plain fields (TestCongestionSteadyPathZeroAllocs).

// Egress-port classes, in port-index layout order.
const (
	portClassServer uint8 = iota // ToR -> homed server down-port
	portClassClient              // ToR -> client down-port
	portClassUplink              // ToR -> spine uplink
	portClassSpine               // spine -> ToR egress (toward rack Index)
)

// portClassNames maps a port class to its CongestionSummary label.
var portClassNames = [...]string{"server", "client", "uplink", "spine"}

// adaptiveBurst is the NetClone+Adaptive token bucket's capacity: the
// largest clone burst the budget admits after an idle stretch.
const adaptiveBurst = 32

// portEntry is one packet occupying an egress port: the queued packet
// plus the typed event to fire when it finally leaves the port.
type portEntry struct {
	p    *packet
	x    int64 // event x payload (e.g. destination server ID); the client or server at a down-port
	post int64 // legacy hop delay, paid after departure
	svc  int64 // serialization time on this port's link
	hid  int32 // destination handler; unused at a down-port
	kind uint8 // destination event kind; unused at a down-port
	// chain, when >= 0, is a second port the packet traverses after
	// this one — the spine egress of a fabric crossing. The chained
	// enqueue happens inline at departure; post/hid/kind/x ride along
	// and fire after the final port.
	chain int32
}

// portQueue is one egress port: a single-server FIFO ring with its
// per-packet serialization time and occupancy statistics. depth counts
// the whole system (queued + in service), matching the M/M/1/K
// occupancy the closed forms in internal/queueing describe.
type portQueue struct {
	ring  []portEntry // capacity == queue cap; tail-drop keeps it full-proof
	head  int
	depth int
	busy  bool

	svcNS int64 // per-packet serialization time of this link
	class uint8
	rack  int
	index int // server/client ID, or destination rack for spine ports

	maxDepth int
	lastT    int64
	area     int64 // time-weighted occupancy integral, for the mean
	arrivals int64
	drops    int64
	marks    int64
}

// account integrates the occupancy up to now.
func (q *portQueue) account(now int64) {
	q.area += int64(q.depth) * (now - q.lastT)
	q.lastT = now
}

func (q *portQueue) push(e portEntry) {
	q.ring[(q.head+q.depth)%len(q.ring)] = e
	q.depth++
}

func (q *portQueue) pop() portEntry {
	e := q.ring[q.head]
	q.ring[q.head].p = nil // release the reference
	q.head = (q.head + 1) % len(q.ring)
	q.depth--
	return e
}

// headSvc returns the serialization time of the packet now taking the
// link (per-entry so tests can drive exponential service draws; the
// production path stamps every entry with the port's constant rate).
func (q *portQueue) headSvc() int64 { return q.ring[q.head].svc }

// congCtl executes a compiled congestion model. It depends only on the
// engine and a packet-free hook — not the whole cluster — so the
// M/M/1/K cross-validation test can drive one port with a bare engine.
type congCtl struct {
	eng  *simnet.Engine
	free func(*packet)
	// recv hands a packet leaving a client down-port to client dst's
	// receiver, which it reaches at time at (client.receive); arrive
	// hands one leaving a server down-port to server dst (server.arrive).
	recv   func(dst int, p *packet, at int64)
	arrive func(dst int, p *packet, at int64)
	h      node  // the registered handler (events.go)
	hid    int32 // its engine handler ID
	// rec mirrors the owning cluster's flight recorder; nil when
	// tracing is off (the usual case — one branch per port event).
	rec *trace.Recorder

	cap      int
	markAt   int
	svcEdge  int64
	svcSpine int64

	// Port-index layout: [0, cliBase) server down-ports (global server
	// ID), [cliBase, upBase) client down-ports, [upBase, spineBase)
	// per-rack ToR uplinks, [spineBase, len) per-destination-rack spine
	// egress ports.
	ports     []portQueue
	cliBase   int
	upBase    int
	spineBase int
	nRacks    int

	// Per-bin rollups for the timeline experiments, allocated at build
	// time when Config.TimelineBinNS > 0.
	binW      int64
	lastTG    int64
	totDepth  int
	depthArea []int64 // per-bin time-weighted total-occupancy integral
	dropBins  []int64

	markedAtClients int64
	suppressed      int64
	budgetSkips     int64

	// NetClone+Adaptive clone budget: a deterministic token bucket
	// refilled at the offered clone rate scaled by the watched port's
	// headroom (Kimad's bandwidth-aware redundancy budget, without its
	// control loop).
	tokens  float64
	tokRate float64 // tokens per ns at full headroom
	tokLast int64
}

// newCongCtl compiles the cluster's validated congestion spec.
func newCongCtl(c *cluster) *congCtl {
	spec := c.cfg.Congestion
	nS, nC, nR := len(c.servers), len(c.clients), c.topo.Racks
	ctl := &congCtl{
		eng:       c.eng,
		free:      c.freePacket,
		recv:      func(dst int, p *packet, at int64) { c.clients[dst].receive(p, at) },
		arrive:    func(dst int, p *packet, at int64) { c.servers[dst].arrive(p, at) },
		rec:       c.rec,
		cap:       spec.QueueCap(),
		markAt:    spec.MarkThreshold(),
		svcEdge:   spec.EdgeServiceNS(),
		svcSpine:  spec.SpineServiceNS(),
		cliBase:   nS,
		upBase:    nS + nC,
		spineBase: nS + nC + nR,
		nRacks:    nR,
		ports:     make([]portQueue, nS+nC+2*nR),
		tokens:    adaptiveBurst,
		tokRate:   c.cfg.OfferedRPS / 1e9,
	}
	for i := range ctl.ports {
		q := &ctl.ports[i]
		q.ring = make([]portEntry, ctl.cap)
		switch {
		case i < ctl.cliBase:
			q.class, q.rack, q.index = portClassServer, c.topo.ServerRack[i], i
			q.svcNS = ctl.svcEdge
		case i < ctl.upBase:
			q.class, q.rack, q.index = portClassClient, c.topo.ClientRack, i-ctl.cliBase
			q.svcNS = ctl.svcEdge
		case i < ctl.spineBase:
			q.class, q.rack, q.index = portClassUplink, i-ctl.upBase, i-ctl.upBase
			q.svcNS = ctl.svcSpine
		default:
			q.class, q.rack, q.index = portClassSpine, i-ctl.spineBase, i-ctl.spineBase
			q.svcNS = ctl.svcSpine
		}
	}
	if c.cfg.TimelineBinNS > 0 {
		ctl.binW = c.cfg.TimelineBinNS
		nbins := (c.endGen+c.cfg.DurationNS)/ctl.binW + 2
		ctl.depthArea = make([]int64, nbins)
		ctl.dropBins = make([]int64, nbins)
	}
	ctl.hid = ctl.h.register(c.eng, ctl)
	return ctl
}

// tick integrates the global occupancy into the per-bin areas, then
// applies delta. A no-op unless the run tracks a timeline.
func (ctl *congCtl) tick(now int64, delta int) {
	if ctl.binW > 0 {
		t := ctl.lastTG
		for t < now {
			b := t / ctl.binW
			if int(b) >= len(ctl.depthArea) {
				break
			}
			end := (b + 1) * ctl.binW
			if end > now {
				end = now
			}
			ctl.depthArea[b] += int64(ctl.totDepth) * (end - t)
			t = end
		}
		ctl.lastTG = now
	}
	ctl.totDepth += delta
}

// record appends one flight-recorder port event (Value = the port's
// current occupancy). Callers guard with the packet's traced flag.
func (ctl *congCtl) record(k trace.Kind, p *packet, qi int) {
	q := &ctl.ports[qi]
	ctl.rec.Record(trace.Event{
		At:     ctl.eng.Now(),
		Seq:    p.hdr.ClientSeq,
		Value:  int32(q.depth),
		Port:   int32(qi),
		Client: p.hdr.ClientID,
		Rack:   uint16(q.rack),
		Kind:   k,
		Flags:  pktFlags(p),
	})
}

// enqueue admits e to port qi: tail-drop on overflow, ECN mark past
// the threshold, and a departure event when the link was idle.
func (ctl *congCtl) enqueue(qi int, e portEntry) {
	now := ctl.eng.Now()
	q := &ctl.ports[qi]
	q.account(now)
	q.arrivals++
	if q.depth >= ctl.cap {
		q.drops++
		if ctl.binW > 0 {
			if b := now / ctl.binW; int(b) < len(ctl.dropBins) {
				ctl.dropBins[b]++
			}
		}
		if e.p != nil && e.p.traced {
			ctl.record(trace.KindPortDrop, e.p, qi)
		}
		ctl.free(e.p)
		return
	}
	q.push(e)
	ctl.tick(now, +1)
	if q.depth > q.maxDepth {
		q.maxDepth = q.depth
	}
	// e.p is nil when a test drives a bare port (the M/M/1/K seam).
	if e.p != nil && e.p.traced {
		ctl.record(trace.KindPortEnqueue, e.p, qi)
	}
	if ctl.markAt > 0 && q.depth > ctl.markAt && e.p.hdr.ECN == 0 {
		e.p.hdr.ECN = 1
		q.marks++
		if e.p.traced {
			ctl.record(trace.KindMark, e.p, qi)
		}
	}
	if !q.busy {
		q.busy = true
		ctl.eng.ScheduleAfter(e.svc, ctl.hid, evPortDepart, nil, int64(qi))
	}
}

// depart handles evPortDepart: the head packet of port x finished
// serializing. It departs (into the chained spine port, to the client's
// receiver or the server, or onto its final typed event after the
// legacy hop delay), and the next queued packet takes the link.
func (ctl *congCtl) depart(x int64) {
	qi := int(x)
	q := &ctl.ports[qi]
	now := ctl.eng.Now()
	q.account(now)
	e := q.pop()
	ctl.tick(now, -1)
	if q.depth > 0 {
		ctl.eng.ScheduleAfter(q.headSvc(), ctl.hid, evPortDepart, nil, x)
	} else {
		q.busy = false
	}
	if e.chain >= 0 {
		next := int(e.chain)
		e.chain = -1
		e.svc = ctl.ports[next].svcNS
		ctl.enqueue(next, e)
		return
	}
	switch q.class {
	case portClassClient:
		ctl.recv(int(e.x), e.p, now+e.post)
		return
	case portClassServer:
		ctl.arrive(int(e.x), e.p, now+e.post)
		return
	}
	ctl.eng.ScheduleAfter(e.post, e.hid, e.kind, e.p, e.x)
}

// congested reports whether port qi currently sits past the marking
// threshold — the near-source signal NetClone+Suppress acts on.
func (ctl *congCtl) congested(qi int) bool {
	return ctl.markAt > 0 && ctl.ports[qi].depth > ctl.markAt
}

// allowClone spends one clone token if the budget has one, refilling
// first at a rate scaled by the watched port's headroom: a full queue
// refills nothing, an idle one refills at the offered request rate.
func (ctl *congCtl) allowClone(now int64, watch int) bool {
	h := float64(ctl.cap-ctl.ports[watch].depth) / float64(ctl.cap)
	if h < 0 {
		h = 0
	}
	ctl.tokens += ctl.tokRate * h * float64(now-ctl.tokLast)
	if ctl.tokens > adaptiveBurst {
		ctl.tokens = adaptiveBurst
	}
	ctl.tokLast = now
	if ctl.tokens >= 1 {
		ctl.tokens--
		return true
	}
	ctl.budgetSkips++
	return false
}

// summary snapshots the executed model at run end (time now).
func (ctl *congCtl) summary(now int64) *CongestionSummary {
	if now <= 0 {
		now = 1
	}
	sum := &CongestionSummary{
		MarkedAtClients:  ctl.markedAtClients,
		SuppressedClones: ctl.suppressed,
		BudgetSkips:      ctl.budgetSkips,
		Racks:            make([]RackCongStats, ctl.nRacks),
	}
	for r := range sum.Racks {
		sum.Racks[r].Rack = r
	}
	for i := range ctl.ports {
		q := &ctl.ports[i]
		q.account(now)
		sum.Drops += q.drops
		sum.Marks += q.marks
		if q.maxDepth > sum.MaxDepth {
			sum.MaxDepth = q.maxDepth
		}
		rs := &sum.Racks[q.rack]
		rs.Drops += q.drops
		rs.Marks += q.marks
		if q.maxDepth > rs.MaxDepth {
			rs.MaxDepth = q.maxDepth
		}
		if q.arrivals == 0 {
			continue // never-touched ports would only pad the report
		}
		sum.Ports = append(sum.Ports, PortCongStats{
			Rack:      q.rack,
			Class:     portClassNames[q.class],
			Index:     q.index,
			MaxDepth:  q.maxDepth,
			MeanDepth: float64(q.area) / float64(now),
			Arrivals:  q.arrivals,
			Drops:     q.drops,
			Marks:     q.marks,
		})
	}
	if ctl.binW > 0 {
		ctl.tick(now, 0) // flush the occupancy integral to the bins
		nb := int(now/ctl.binW) + 1
		if nb > len(ctl.depthArea) {
			nb = len(ctl.depthArea)
		}
		sum.DepthBins = make([]float64, nb)
		for b := range sum.DepthBins {
			sum.DepthBins[b] = float64(ctl.depthArea[b]) / float64(ctl.binW)
		}
		sum.DropBins = append([]int64(nil), ctl.dropBins[:nb]...)
	}
	return sum
}

// ---------------------------------------------------------------------
// Cluster-side routing helpers: each congested hop builds its port
// entry here, preserving the exact legacy delay expression as post.

// congToServer routes a ToR->server hop through the server's down-port.
func (c *cluster) congToServer(dst int, p *packet, post int64) {
	c.cong.enqueue(dst, portEntry{
		p: p, x: int64(dst), post: post, svc: c.cong.svcEdge, chain: -1,
	})
}

// congToClient routes a ToR->client hop through the client's down-port.
func (c *cluster) congToClient(dst int, p *packet, post int64) {
	c.cong.enqueue(c.cong.cliBase+dst, portEntry{
		p: p, x: int64(dst), post: post, svc: c.cong.svcEdge, chain: -1,
	})
}

// congTransitReq routes a request's fabric crossing: the source ToR's
// uplink chained into the spine egress toward the destination rack,
// then the legacy transit delay to the destination ToR.
func (c *cluster) congTransitReq(srcRack, dstRack, dst int, p *packet) {
	c.cong.enqueue(c.cong.upBase+srcRack, portEntry{
		p: p, hid: c.tors[dstRack].hid, kind: evSwTransitRequest, x: int64(dst),
		post: c.dSwTrans[dstRack], svc: c.cong.svcSpine,
		chain: int32(c.cong.spineBase + dstRack),
	})
}

// congTransitResp routes a response's fabric crossing back toward the
// clients' rack.
func (c *cluster) congTransitResp(srcRack int, p *packet) {
	c.cong.enqueue(c.cong.upBase+srcRack, portEntry{
		p: p, hid: c.sw.hid, kind: evSwFromServer,
		post: c.dSwTrans[srcRack], svc: c.cong.svcSpine,
		chain: int32(c.cong.spineBase + c.topo.ClientRack),
	})
}

// cloneAdmitted is the congestion-reactive clone gate, consulted on
// the clients' ToR before a clone is created. NetClone+Suppress skips
// the clone when the port it would leave through (its egress down-port,
// or the uplink for a remote candidate) or the requester's return port
// is past the marking threshold — SFC's near-source suppression.
// NetClone+Adaptive spends a token from the headroom-scaled budget.
// Every other scheme (and a nil congestion model) always admits.
func (s *switchNode) cloneAdmitted(p *packet, origDst int) bool {
	c := s.cl
	ctl := c.cong
	if ctl == nil {
		return true
	}
	switch c.cfg.Scheme {
	case NetCloneSuppress, NetCloneAdaptive:
	default:
		return true
	}
	// The clone's destination is the group's other candidate.
	s1, s2, ok := s.dp.Group(int(p.hdr.Group))
	cdst := int(s1)
	if ok && int(s1) == origDst {
		cdst = int(s2)
	}
	ePort := cdst
	if c.servers[cdst].tor != s {
		ePort = ctl.upBase + s.rack
	}
	retPort := ctl.cliBase + int(p.hdr.ClientID)%len(c.clients)
	if c.cfg.Scheme == NetCloneSuppress {
		if ctl.congested(ePort) || ctl.congested(retPort) {
			ctl.suppressed++
			if p.traced {
				port := ePort
				if !ctl.congested(ePort) {
					port = retPort
				}
				ctl.record(trace.KindSuppress, p, port)
			}
			return false
		}
		return true
	}
	watch := ePort
	if ctl.ports[retPort].depth > ctl.ports[ePort].depth {
		watch = retPort
	}
	admitted := ctl.allowClone(c.eng.Now(), watch)
	if !admitted && p.traced {
		ctl.record(trace.KindBudgetSkip, p, watch)
	}
	return admitted
}

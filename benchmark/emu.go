package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/kvstore"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// The benchmark's own load generator for the real-socket path: one UDP
// socket, one sender goroutine and one receiver goroutine, a closed
// loop with a fixed window of requests in flight. Closed loop is
// deliberate. On the reference host time.Sleep overshoots by 0.4-0.5 ms
// at the median, so an open loop paced by the Go timer and timed from
// the due instant measures the timer: p50 came out near 0.67 ms of
// which 0.45 ms was the generator running late. A window needs no
// timer. Window 2 keeps every burst at one packet (latency with
// batching idle); window 64 fills the recvmmsg/sendmmsg rings
// (saturation).

const (
	// requestDeadline is how long a request may stay unanswered before
	// it is counted as lost and sent once more, and how long the second
	// attempt may take before the request has failed. The cluster's own
	// default is 2 s; with that, one datagram lost in a closed loop of
	// two stalls half the loop for two seconds and cut a whole run's
	// rate by a quarter. A lost datagram is counted here, it is not
	// allowed to set the rate. It is sent again because on the reference
	// host's kernel about one datagram in a thousand addressed to a
	// server is dropped (RcvbufErrors, with one request in flight and an
	// empty queue), and when the other copy of that request was not
	// cloned or was refused by the server's clone guard the request is
	// gone: a few per million at saturation. Any client of a datagram
	// RPC retransmits; a workload of record is one on which no
	// operation fails.
	requestDeadline = 50 * time.Millisecond

	// slotCount bounds how far the newest sequence number can run ahead
	// of the oldest unanswered one: at 100k req/s a request waiting out
	// its deadline is 5,000 sequence numbers behind.
	slotCount = 1 << 16

	genClientID = 900 // clear of the cluster's own clients (1, 2, ...)

	// latencyWindow and saturationWindow are the two closed loops of
	// emu-loopback: two requests in flight keep every burst at one
	// packet; sixty-four fill the 32-slot rings twice over and keep both
	// cores busy.
	latencyWindow    = 2
	saturationWindow = 64

	maxWindow = 1024

	// spanEvery is the share of requests that get a span in the layer
	// run: every request is counted and timed, one in sixteen is kept
	// as a span so the trace file stays a few megabytes.
	spanEvery = 16
)

const (
	slotFree uint32 = iota
	slotOutstanding
	slotExpired
)

// slot tracks one request in flight. The sender fills op, rank and
// sentNS and then publishes them by storing slotOutstanding; the
// receiver reads them only after loading that state, and gives the slot
// back with a compare-and-swap, so whichever of first response and
// deadline comes first wins and the other sees it.
type slot struct {
	state  atomic.Uint32
	seq    atomic.Uint32
	op     workload.OpKind
	rank   uint64
	sentNS int64
	// dueNS and resent belong to the sender alone.
	dueNS  int64
	resent bool
}

// phaseStats is what the receiver accumulates during one phase.
type phaseStats struct {
	lat       [][]int64 // first-response latency, ns, one list per slice
	completed int64
	redundant int64 // a second response to an answered request
	late      int64 // a response to a request already given up on
	corrupt   int64 // a first response with the wrong payload
}

type generator struct {
	conn         *net.UDPConn
	dst          netip.AddrPort // the switch, or the single hop under test
	t0           time.Time
	numGroups    int
	filterTables int
	mix          *workload.KVMix
	rng          *rand.Rand
	ref          *kvstore.Store // what the servers' store must answer

	slots []slot
	// tokens holds one token per request the window still allows. Its
	// capacity is the largest window; a phase puts its window in and
	// takes it all back out at the end.
	tokens chan struct{}

	// sender-owned
	nextSeq uint32
	oldest  uint32 // oldest sequence number that may still be in flight
	buf     []byte
	sent    int64
	lost    int64 // first attempts unanswered at the deadline
	expired int64 // requests unanswered after the second attempt: failed
	sendErr int64

	mu    sync.Mutex // guards ph, cur, rec, parent
	ph    *phaseStats
	cur   int
	rec   *recorder
	spanP int32

	recvDone chan struct{}
}

// newGenerator binds the generator's socket and starts the receiver;
// aim it at a destination before the first closedLoop.
func newGenerator(numGroups, filterTables int, mix *workload.KVMix, storeObjects int, seed uint64) (*generator, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	g := &generator{
		conn:         conn,
		t0:           time.Now(),
		numGroups:    max(numGroups, 1),
		filterTables: max(filterTables, 1),
		mix:          mix,
		rng:          rand.New(rand.NewPCG(seed, 0x6E6574636C6F6E65)),
		ref:          kvstore.NewStore(storeObjects),
		slots:        make([]slot, slotCount),
		tokens:       make(chan struct{}, maxWindow),
		buf:          make([]byte, 0, wire.HeaderLen+wire.OpHeaderLen+kvstore.ValueSize),
		ph:           &phaseStats{lat: [][]int64{nil}},
		recvDone:     make(chan struct{}),
	}
	go g.receive()
	return g, nil
}

// addr is where responses to the generator must be sent.
func (g *generator) addr() *net.UDPAddr { return g.conn.LocalAddr().(*net.UDPAddr) }

// aim sets where requests go.
func (g *generator) aim(dst *net.UDPAddr) { g.dst = dst.AddrPort() }

// close releases the socket and waits for the receiver to end.
func (g *generator) close() error {
	err := g.conn.Close()
	<-g.recvDone
	return err
}

// initialValue is what kvstore.NewStore puts at rank, which is also
// what the generator's SETs write back: the store never changes, so
// every GET and SCAN has one right answer.
func initialValue(rank uint64, dst []byte) {
	binary.BigEndian.PutUint64(dst, rank)
	for j := 8; j < kvstore.ValueSize; j++ {
		dst[j] = byte(rank + uint64(j))
	}
}

// send issues the next request of the seeded operation stream.
func (g *generator) send() {
	op, rank := g.mix.Next(g.rng)
	seq := g.nextSeq
	g.nextSeq++
	group, idx := g.rng.IntN(g.numGroups), g.rng.IntN(g.filterTables)

	sl := &g.slots[seq%slotCount]
	if sl.state.Load() == slotOutstanding {
		// The window ran a full ring ahead of an unanswered request;
		// give the old one up rather than lose track of it.
		if sl.state.CompareAndSwap(slotOutstanding, slotExpired) {
			g.expired++
			g.tokens <- struct{}{}
		}
	}
	now := time.Since(g.t0).Nanoseconds()
	sl.op, sl.rank = op, rank
	sl.seq.Store(seq)
	sl.sentNS, sl.dueNS, sl.resent = now, now+requestDeadline.Nanoseconds(), false
	sl.state.Store(slotOutstanding)
	g.sent++
	g.transmit(sl, seq, group, idx)
}

// transmit puts one attempt of a request on the wire.
func (g *generator) transmit(sl *slot, seq uint32, group, idx int) {
	h := wire.Header{
		Type:      wire.TypeReq,
		Group:     uint16(group),
		Idx:       uint8(idx),
		ClientID:  genClientID,
		ClientSeq: seq,
		PktTotal:  1,
	}
	var span uint16
	var val [kvstore.ValueSize]byte
	var value []byte
	switch sl.op {
	case workload.OpScan:
		span = workload.ScanSpan
	case workload.OpSet:
		initialValue(sl.rank, val[:])
		value = val[:]
	}
	g.buf = h.AppendTo(g.buf[:0])
	g.buf = wire.AppendOp(g.buf, uint8(sl.op), sl.rank, span, value)
	if _, err := g.conn.WriteToUDPAddrPort(g.buf, g.dst); err != nil {
		g.sendErr++
	}
}

// expire deals with requests past their deadline, oldest first: the
// first time a request is counted as lost and sent once more (to the
// group and filter table its sequence number picks, so that the seeded
// stream is not disturbed); the second time it has failed and its
// window token comes back. With all set, everything in flight fails.
func (g *generator) expire(all bool) {
	now := time.Since(g.t0).Nanoseconds()
	for g.oldest != g.nextSeq {
		sl := &g.slots[g.oldest%slotCount]
		if sl.state.Load() == slotOutstanding && sl.seq.Load() == g.oldest {
			switch {
			case all || (sl.resent && now >= sl.dueNS):
				if sl.state.CompareAndSwap(slotOutstanding, slotExpired) {
					g.expired++
					g.tokens <- struct{}{}
				}
			case now >= sl.dueNS:
				g.lost++
				sl.resent, sl.dueNS = true, now+requestDeadline.Nanoseconds()
				g.transmit(sl, g.oldest, int(g.oldest)%g.numGroups, int(g.oldest)%g.filterTables)
				return
			default:
				return
			}
		}
		g.oldest++
	}
}

// receive settles responses until the socket closes.
func (g *generator) receive() {
	defer close(g.recvDone)
	buf := make([]byte, 2048)
	var want [kvstore.ValueSize]byte
	for {
		n, _, err := g.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // the socket was closed
		}
		now := time.Since(g.t0).Nanoseconds()
		var h wire.Header
		if _, err := h.Unmarshal(buf[:n]); err != nil || h.Type != wire.TypeResp || h.ClientID != genClientID {
			g.mu.Lock()
			g.ph.corrupt++
			g.mu.Unlock()
			continue
		}
		seq := h.ClientSeq
		sl := &g.slots[seq%slotCount]
		if sl.state.Load() != slotOutstanding || sl.seq.Load() != seq {
			g.mu.Lock()
			if sl.seq.Load() == seq && sl.state.Load() == slotFree {
				g.ph.redundant++
			} else {
				g.ph.late++
			}
			g.mu.Unlock()
			continue
		}
		op, rank, sentNS := sl.op, sl.rank, sl.sentNS
		if !sl.state.CompareAndSwap(slotOutstanding, slotFree) {
			g.mu.Lock()
			g.ph.late++
			g.mu.Unlock()
			continue
		}
		// First response: only this one is timed and counted.
		payload := buf[wire.HeaderLen:n]
		ok := true
		switch op {
		case workload.OpGet:
			initialValue(rank, want[:])
			ok = bytes.Equal(payload, want[:])
		case workload.OpScan:
			sum, _ := g.ref.Scan(rank, workload.ScanSpan)
			ok = len(payload) == 8 && payload[0] == byte(sum>>56)
		case workload.OpSet:
			ok = len(payload) == 0
		}
		g.mu.Lock()
		if ok {
			g.ph.completed++
			g.ph.lat[g.cur] = append(g.ph.lat[g.cur], now-sentNS)
		} else {
			g.ph.corrupt++
		}
		rec, parent := g.rec, g.spanP
		g.mu.Unlock()
		if rec != nil && seq%spanEvery == 0 {
			rec.add("request", parent, int64(seq), g.t0.Add(time.Duration(sentNS)), g.t0.Add(time.Duration(now)))
		}
		g.tokens <- struct{}{}
	}
}

// phaseResult is one closed-loop phase as measured.
type phaseResult struct {
	window    int
	slices    []sliceStat
	lat       [][]int64 // ascending, one list per slice
	sent      int64
	completed int64
	lost      int64 // first attempts unanswered at the deadline, sent again
	failed    int64 // unanswered after the second attempt, or answered wrongly
	redundant int64
	late      int64
	sendErr   int64
	// rcvbufDrops is how many datagrams the kernel dropped at a full
	// socket receive buffer while the phase ran.
	rcvbufDrops int64
}

// closedLoop keeps window requests in flight for dur, cut into nSlices
// equal slices whose boundaries the calling goroutine keeps by sleeping
// (a late wake-up of half a millisecond moves a two-second boundary by
// 0.02%). After the last slice the sender stops and what is in flight
// is answered or expires.
func (g *generator) closedLoop(window int, dur time.Duration, nSlices int, rec *recorder, parent int32) phaseResult {
	for i := 0; i < window; i++ {
		g.tokens <- struct{}{}
	}
	ph := &phaseStats{lat: make([][]int64, nSlices)}
	g.mu.Lock()
	g.ph, g.cur, g.rec, g.spanP = ph, 0, rec, parent
	g.mu.Unlock()
	sent0, lost0, expired0, sendErr0, drops0 := g.sent, g.lost, g.expired, g.sendErr, udpRcvbufErrors()

	var stop atomic.Bool
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			select {
			case <-g.tokens:
				g.send()
			case <-tick.C:
				g.expire(false)
			}
		}
		// Drain: take every token back out, so that each request is
		// answered or expired before the phase is read and the channel
		// is empty for the next phase.
		deadline := time.Now().Add(3 * requestDeadline)
		for home := 0; home < window; {
			select {
			case <-g.tokens:
				home++
			case <-tick.C:
				g.expire(time.Now().After(deadline))
			}
		}
	}()

	res := phaseResult{window: window}
	start := time.Now()
	var prevDone int64
	u0 := processUsage(false)
	for k := 0; k < nSlices; k++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k+1) / time.Duration(nSlices))))
		g.mu.Lock()
		done := ph.completed
		if k+1 < nSlices {
			g.cur = k + 1
		}
		g.mu.Unlock()
		u1 := processUsage(false)
		res.slices = append(res.slices, sliceStat{wall: u1.at.Sub(u0.at), cpu: u1.cpu - u0.cpu, ctxsw: u1.ctxsw - u0.ctxsw, requests: done - prevDone})
		prevDone, u0 = done, u1
	}
	stop.Store(true)
	<-senderDone

	g.mu.Lock()
	g.ph, g.cur, g.rec = &phaseStats{lat: [][]int64{nil}}, 0, nil
	g.mu.Unlock()
	for _, l := range ph.lat {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
	}
	res.lat = ph.lat
	res.sent = g.sent - sent0
	res.completed = ph.completed
	res.lost = g.lost - lost0
	res.failed = g.expired - expired0 + ph.corrupt
	res.redundant, res.late = ph.redundant, ph.late
	res.sendErr = g.sendErr - sendErr0
	res.rcvbufDrops = udpRcvbufErrors() - drops0
	return res
}

// merge appends the slices of q, a later stretch of the same phase.
func (p *phaseResult) merge(q phaseResult) {
	p.slices = append(p.slices, q.slices...)
	p.lat = append(p.lat, q.lat...)
	p.sent += q.sent
	p.completed += q.completed
	p.lost += q.lost
	p.failed += q.failed
	p.redundant += q.redundant
	p.late += q.late
	p.sendErr += q.sendErr
	p.rcvbufDrops += q.rcvbufDrops
}

// refBurst is how many calls of the host-speed reference are made
// between two slices of the real-socket workload, with the cluster
// idle: the reference cannot be interleaved with a loop that runs on
// its own goroutines.
const refBurst = 10

// refLoop is closedLoop cut into nSlices loops of their own with a
// burst of the reference before the first, between each two and after
// the last. Single calls of the reference differ by 10% on a quiet
// host, which a burst does not average away, so the phase has one host
// speed, from all its bursts together, and every slice carries it:
// slow episodes of the host outlast a phase, and what changes within
// one is left to the median over the slices. With no reference it is
// closedLoop.
func (g *generator) refLoop(ref *hostRef, window int, dur time.Duration, nSlices int, rec *recorder, parent int32) phaseResult {
	if ref == nil {
		return g.closedLoop(window, dur, nSlices, rec, parent)
	}
	res := phaseResult{window: window}
	wall, ops := ref.burst(refBurst)
	for k := 0; k < nSlices; k++ {
		res.merge(g.closedLoop(window, dur/time.Duration(nSlices), 1, rec, parent))
		w, o := ref.burst(refBurst)
		wall, ops = wall+w, ops+o
	}
	for k := range res.slices {
		res.slices[k].refWall, res.slices[k].refOps = wall, ops
	}
	return res
}

// quantilesUS returns the q-quantile of each slice's latencies in
// microseconds, skipping empty slices; hostUS is the same in host time,
// refUS in reference time (see ref.go), which without a reference are
// one and the same.
func (p *phaseResult) quantilesUS(q float64) (refUS, hostUS []float64) {
	for k, l := range p.lat {
		if len(l) > 0 {
			us := float64(quantileSorted(l, q)) / 1e3
			hostUS = append(hostUS, us)
			refUS = append(refUS, us*p.slices[k].speed())
		}
	}
	return refUS, hostUS
}

// pooled returns every slice's latencies as one ascending sample.
func (p *phaseResult) pooled() []int64 {
	var all []int64
	for _, l := range p.lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return all
}

// ---------------------------------------------------------------------
// emu-loopback

const (
	emuStoreObjects = 1 << 16
	emuZipfSkew     = 0.99 // the skew the paper's KV experiments use (fig11, fig12)
	emuWarmRequests = 20000
)

// emuMix is the operation stream: 90% GET, 5% SCAN, 5% SET.
func emuMix() *workload.KVMix {
	return workload.NewKVMix(0.90, 0.05, emuStoreObjects, emuZipfSkew)
}

// emuClusterConfig is the cluster under test: the NetClone switch of
// §4.1 (cloning and filtering, two filter tables of 2^17 slots) in
// front of two servers of two workers.
func emuClusterConfig(seed uint64, io udpemu.IOMode) udpemu.ClusterConfig {
	return udpemu.ClusterConfig{
		Dataplane:    dataplane.DefaultConfig(),
		Workers:      []int{2, 2},
		StoreObjects: emuStoreObjects,
		Seed:         seed,
		IO:           io,
	}
}

// emuRig is a started cluster with the generator attached.
type emuRig struct {
	cluster *udpemu.Cluster
	gen     *generator
}

// startRig starts the cluster and the generator and warms both up: the
// first requests of a fresh process pay for page faults, ARP-less
// loopback route lookups and goroutine start-up, and in two of four
// fresh processes the first cluster lost one datagram.
func startRig(seed uint64, io udpemu.IOMode, mix *workload.KVMix, warm int, rec *recorder, parent int32) (*emuRig, error) {
	sp := rec.begin("StartCluster", parent, 0)
	cluster, err := udpemu.StartCluster(emuClusterConfig(seed, io))
	rec.end(sp, 0)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(cluster.Switch.NumGroups(), dataplane.DefaultConfig().FilterTables, mix, emuStoreObjects, seed)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	gen.aim(cluster.Switch.Addr())
	rig := &emuRig{cluster: cluster, gen: gen}
	sp = rec.begin("warm-up", parent, 0)
	rig.warm(warm)
	rec.end(sp, int64(warm))
	return rig, nil
}

// warm sends n requests at window 8 and discards what it measures.
func (r *emuRig) warm(n int) {
	for sent := int64(0); sent < int64(n); {
		ph := r.gen.closedLoop(8, 50*time.Millisecond, 1, nil, -1)
		if ph.sent == 0 {
			return // nothing gets through; the measurement will say so
		}
		sent += ph.sent
	}
}

func (r *emuRig) close() error {
	return errors.Join(r.gen.close(), r.cluster.Close())
}

// The measured part of emu-loopback is 60% of the time at the latency
// window and 40% at the saturation window. The run of record cuts the
// two into twelve and eight slices of about a second with a burst of
// the host-speed reference between them; the layer run, which has no
// reference and a quarter of the time, into five each.
const (
	emuLatSlices = 12
	emuSatSlices = 8
	// refBurstCost is about what one burst takes.
	refBurstCost = refBurst * 5 * time.Millisecond
)

func emuPhases(c *runCtx, rig *emuRig, parent int32) (lat, sat phaseResult) {
	total := time.Duration(c.seconds * float64(time.Second))
	latSlices, satSlices := 5, 5
	if c.ref != nil {
		latSlices, satSlices = emuLatSlices, emuSatSlices
		total = max(total-time.Duration(latSlices+satSlices+2)*refBurstCost, total/2)
	}
	sp := c.rec.begin("latency-window", parent, latencyWindow)
	lat = rig.gen.refLoop(c.ref, latencyWindow, total*6/10, latSlices, c.rec, sp)
	c.rec.end(sp, lat.completed)
	sp = c.rec.begin("saturation-window", parent, saturationWindow)
	sat = rig.gen.refLoop(c.ref, saturationWindow, total*4/10, satSlices, c.rec, sp)
	c.rec.end(sp, sat.completed)
	return lat, sat
}

// checkEmu applies the emu output checks and failure accounting.
func checkEmu(c *runCtx, rig *emuRig, phases ...phaseResult) udpemu.ClusterCounters {
	counters := rig.cluster.Counters()
	var sent, completed, failed, redundant int64
	for _, p := range phases {
		sent += p.sent
		completed += p.completed
		failed += p.failed
		redundant += p.redundant
		c.res.Detail[fmt.Sprintf("emu_window%d_failed", p.window)] += float64(p.failed)
		c.res.Detail[fmt.Sprintf("emu_window%d_lost_first_attempts", p.window)] += float64(p.lost)
		c.res.Detail[fmt.Sprintf("emu_window%d_late", p.window)] += float64(p.late)
		c.res.Detail[fmt.Sprintf("emu_window%d_rcvbuf_drops", p.window)] += float64(p.rcvbufDrops)
	}
	c.res.Attempted += sent
	c.res.Failed += failed
	c.res.verify("emu_clones_made", counters.Switch.Cloned > 0, "switch cloned no request")
	c.res.verify("emu_completed_not_above_sent", completed <= sent, "completed %d of %d sent", completed, sent)
	// First-response-only accounting: a request is completed by its
	// first response or failed by its deadline, never both and never
	// neither; later responses are counted as redundant, not completed.
	c.res.verify("emu_first_response_only", completed+failed == sent,
		"sent %d, completed %d, failed %d", sent, completed, failed)
	c.res.Detail["emu_sent"] += float64(sent)
	c.res.Detail["emu_completed"] += float64(completed)
	c.res.Detail["emu_redundant"] += float64(redundant)
	c.res.Detail["emu_switch_cloned"] += float64(counters.Switch.Cloned)
	return counters
}

func runEmuLoopback(c *runCtx) error {
	mix := emuMix()
	// Set-up is starting the cluster and warming it; the rigs of the
	// first two rounds are closed outside the timed part.
	var rig *emuRig
	var stale []*emuRig
	err := setUp(c, func() error {
		if rig != nil {
			stale = append(stale, rig)
		}
		var err error
		rig, err = startRig(c.seed, udpemu.IOAuto, mix, c.scaled(emuWarmRequests), nil, -1)
		return err
	})
	for _, r := range stale {
		err = errors.Join(err, r.close())
	}
	if err != nil {
		if rig != nil {
			err = errors.Join(err, rig.close())
		}
		return err
	}
	defer rig.close()
	c.res.Env.EmuIO = ioName(rig.cluster.Batched())

	lat, sat := emuPhases(c, rig, -1)
	checkEmu(c, rig, lat, sat)

	p50, hostP50 := lat.quantilesUS(0.50)
	p99, hostP99 := lat.quantilesUS(0.99)
	c.res.setSlices("rtt_p50_us", p50)
	c.res.setSlices("rtt_p99_us", p99)
	c.res.setHost("rtt_p50_host_us", "us", hostP50)
	c.res.setHost("rtt_p99_host_us", "us", hostP99)
	c.res.Detail["host_speed_latency_window"] = lat.slices[0].speed()
	reportThroughput(c, sat.slices)
	for _, l := range lat.lat {
		if n := len(l); supportedTail(n) < 0.99 {
			c.res.Notes = append(c.res.Notes, fmt.Sprintf("a latency-window slice has %d samples; its p99 has fewer than ten beyond it", n))
			break
		}
	}
	if lost := lat.lost + sat.lost; lost > 0 {
		c.res.Notes = append(c.res.Notes, fmt.Sprintf("%d requests went unanswered for %v and were sent again; %d of them failed", lost, requestDeadline, lat.failed+sat.failed))
	}
	return nil
}

func ioName(batched bool) string {
	if batched {
		return "batched"
	}
	return "portable"
}

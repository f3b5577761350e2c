package simcluster

import (
	"sync"

	"netclone/internal/simnet"
	"netclone/internal/trace"
	"netclone/internal/wire"
)

// slabPackets is the primed freelist size (cluster.primePackets); one
// slab comfortably covers the steady-state in-flight high-water mark of
// the tracked benchmark configurations.
const slabPackets = 256

// pktSlab is one pooled packet backing: the slab array plus the
// freelist slice primed over it.
type pktSlab struct {
	slab []packet
	ptrs []*packet
}

// pktSlabPool recycles packet slabs across simulation runs.
var pktSlabPool sync.Pool

// engPool recycles event engines across runs: the slab, batch, and
// overflow buffers keep their high-water capacity, so a recycled
// engine's steady state allocates nothing.
var engPool sync.Pool

func getEngine() *simnet.Engine {
	if e, ok := engPool.Get().(*simnet.Engine); ok {
		return e
	}
	return simnet.NewEngine()
}

// putEngine returns a dead cluster's engine to the pool. Reset drops
// every pending payload and handler reference, so the pool pins no
// cluster memory.
func putEngine(e *simnet.Engine) {
	e.Reset()
	engPool.Put(e)
}

// recPool recycles flight-recorder rings across traced runs: the
// default ring is 65,536 records (2 MB), and allocating and zeroing one
// per run was most of what WithTrace cost a millisecond-scale run.
var recPool sync.Pool

func getRecorder(rate, capacity int) *trace.Recorder {
	if r, ok := recPool.Get().(*trace.Recorder); ok {
		r.Reset(rate, capacity)
		return r
	}
	return trace.NewRecorder(rate, capacity)
}

// release hands a dead cluster's pooled parts back — packet slab,
// recorder ring, engine. Only valid once the result (and the trace
// snapshot, a copy) has been extracted.
func (c *cluster) release() {
	c.recyclePackets()
	if c.rec != nil {
		recPool.Put(c.rec)
		c.rec = nil
	}
	if c.eng != nil {
		putEngine(c.eng)
		c.eng = nil
	}
}

// Packet freelist (DESIGN.md § Performance model). The cluster is
// single-threaded — one event engine, one goroutine — so recycling is a
// plain LIFO stack with no sync.Pool contention or per-P caches.
//
// Lifecycle rules:
//
//   - Every packet is born through newPacket (fully zeroed) and filled
//     by exactly one producer: client.makeRequest, the switch clone
//     path, or the coordinator duplicate path.
//   - Ownership moves with the packet through scheduled events; at any
//     instant exactly one node (or one queued event) references it.
//   - Every terminal outcome frees exactly once: drop paths (loss,
//     switch down, filter drop, no-route, stale-clone guard, redundant
//     at coordinator) and client RX completion.
//   - A served request is NOT freed at the server: finish rewrites the
//     same struct into the response in place, which both saves the
//     round-trip through the pool and mirrors how the real server
//     reuses the request buffer for the reply.
//   - Packets still in flight when the run's deadline expires are never
//     freed; the pool dies with the cluster.
//
// poisonFreedPackets (race/debug builds, see poison_*.go) overwrites
// freed packets with sentinel values so a use-after-free reads garbage
// loudly instead of silently reading stale-but-plausible state.

// poison fills every field of a freed packet with sentinel values, so a
// use-after-free of any field (including Clo, which the server's
// stale-clone guard branches on) reads loud garbage. A packet holds no
// pointer, so there is no field a sentinel could not fill.
func poison(p *packet) {
	const dead = -0x6b6b6b6b6b6b6b6b
	p.hdr = wire.Header{
		Type:       0xAA,
		ReqID:      0xAAAAAAAA,
		Group:      0xAAAA,
		SID:        0xAAAA,
		State:      0xAAAA,
		Clo:        0xAA,
		Idx:        0xAA,
		SwitchID:   0xAAAA,
		ClientID:   0xAAAA,
		ClientSeq:  0xAAAAAAAA,
		PktSeq:     0xAA,
		PktTotal:   0xAA,
		PayloadLen: 0xAAAA,
		ECN:        0xAA,
	}
	p.op = 0xAA
	p.direct = true
	p.traced = true // a reader records garbage, or panics on a nil recorder
	p.coordID = -0x55AA55AA
	p.srvEpoch = 0xAAAAAAAA
	p.cancelled = true
}

// newPacket returns a zeroed packet, recycling the freelist when
// possible. Steady-state simulation allocates no new packets: the pool
// reaches the in-flight high-water mark and cycles.
func (c *cluster) newPacket() *packet {
	if n := len(c.pktPool); n > 0 {
		p := c.pktPool[n-1]
		c.pktPool = c.pktPool[:n-1]
		*p = packet{}
		return p
	}
	return &packet{}
}

// freePacket recycles p. The caller must hold the only live reference.
func (c *cluster) freePacket(p *packet) {
	if disableFreelist {
		return
	}
	if poisonFreedPackets {
		poison(p)
	}
	c.pktPool = append(c.pktPool, p)
}

// disableFreelist is a test hook: when true, freed packets are
// abandoned to the garbage collector instead of recycled, so tests can
// prove recycling does not change observable results.
var disableFreelist bool

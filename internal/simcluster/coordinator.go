package simcluster

import (
	"math/rand/v2"

	"netclone/internal/simnet"
)

// coordinator models the LÆDGE cloning coordinator (§2.2): a dedicated
// server between clients and workers that
//
//   - clones a request to two idle workers when at least two are idle,
//   - forwards it to a single idle worker when exactly one is idle,
//   - queues it when no worker is idle, dispatching on the next response,
//   - deduplicates responses and forwards the first one to the client.
//
// Every packet it touches costs CoordPktCostNS on a single CPU pipeline,
// which is its throughput bottleneck — "the coordinator relies on the CPU
// to handle requests" and "should process redundant slower responses to
// dispatch another request, making throughput worse".
//
// A worker is "idle" when its outstanding-dispatch count is below its
// worker-thread capacity, the natural generalization of LÆDGE's
// one-request-at-a-time idleness to multi-threaded workers.
type coordinator struct {
	cl  *cluster
	h   node // the registered handler (events.go)
	id  int
	hid int32 // its engine handler ID
	rng *rand.Rand

	cpuBusyUntil int64

	owned       []int // server IDs this coordinator dispatches to
	outstanding []int // per-server dispatched-but-unanswered requests
	capacity    []int
	idleBuf     []int // scratch for idleServers, reused across events

	queue    pktFIFO // requests waiting for an idle server
	queueMax int

	// pendingPair tracks cloned requests by client (ClientID, ClientSeq)
	// so the slower response can be discarded.
	pendingPair map[uint64]bool // true once the first response forwarded
}

// newCoordinator builds coordinator id of k, owning the workers whose
// server ID is congruent to id mod k (round-robin partition).
func newCoordinator(c *cluster, id, k int) *coordinator {
	co := &coordinator{
		cl:          c,
		id:          id,
		rng:         simnet.NewRNG(c.cfg.Seed, 300+uint64(id)),
		outstanding: make([]int, len(c.cfg.Workers)),
		capacity:    append([]int(nil), c.cfg.Workers...),
		pendingPair: make(map[uint64]bool),
	}
	co.hid = co.h.register(c.eng, co)
	for s := range c.cfg.Workers {
		if s%k == id {
			co.owned = append(co.owned, s)
		}
	}
	co.idleBuf = make([]int, 0, len(co.owned))
	return co
}

// arriveRequest queues a request reaching the coordinator NIC for a CPU
// slot, after which dispatch routes it.
func (co *coordinator) arriveRequest(p *packet) {
	co.cpuSchedule(evCoDispatch, p, 0)
}

// arriveResponse queues a worker response for a CPU slot, after which
// onResponse processes it.
func (co *coordinator) arriveResponse(p *packet) {
	co.cpuSchedule(evCoResponse, p, 0)
}

// transmit puts p on the link to the switch once its TX slot is done;
// kind is the switch event it arrives as, x its destination index.
func (co *coordinator) transmit(p *packet, kind uint8, x int64) {
	co.cl.eng.ScheduleAfter(co.cl.dLink, co.cl.sw.hid, kind, p, x)
}

// cpuSchedule charges one packet-processing slot on the coordinator CPU
// and schedules the given event for when the slot completes.
func (co *coordinator) cpuSchedule(kind uint8, p *packet, x int64) {
	now := co.cl.eng.Now()
	start := now
	if co.cpuBusyUntil > start {
		start = co.cpuBusyUntil
	}
	done := start + co.cl.cfg.Cal.CoordPktCostNS
	co.cpuBusyUntil = done
	co.cl.eng.Schedule(done, co.hid, kind, p, x)
}

// dispatch routes p to idle workers, cloning when two are idle;
// requests finding no idle worker are queued and re-dispatched from
// onResponse.
func (co *coordinator) dispatch(p *packet) {
	idle := co.idleServers()
	switch {
	case len(idle) >= 2:
		// Clone to two random idle servers (§2.2).
		i := co.rng.IntN(len(idle))
		j := co.rng.IntN(len(idle) - 1)
		if j >= i {
			j++
		}
		co.sendToServer(p, idle[i])
		dup := co.cl.newPacket()
		dup.hdr, dup.op = p.hdr, p.op
		dup.coordID, dup.traced = p.coordID, p.traced // its response returns to this owner
		co.sendToServer(dup, idle[j])
		co.pendingPair[p.hdr.LamportID()] = false
	case len(idle) == 1:
		co.sendToServer(p, idle[0])
	default:
		co.queue.push(p)
		if co.queue.len() > co.queueMax {
			co.queueMax = co.queue.len()
		}
	}
}

// idleServers fills the reusable scratch buffer with the owned servers
// that have spare capacity. The returned slice is valid until the next
// call.
func (co *coordinator) idleServers() []int {
	idle := co.idleBuf[:0]
	for _, s := range co.owned {
		if co.outstanding[s] < co.capacity[s] {
			idle = append(idle, s)
		}
	}
	co.idleBuf = idle
	return idle
}

// sendToServer charges the TX packet cost and forwards via the switch.
func (co *coordinator) sendToServer(p *packet, sid int) {
	co.outstanding[sid]++
	co.cpuSchedule(evCoTxServer, p, int64(sid))
}

// onResponse runs when the CPU slot for a worker response completes.
func (co *coordinator) onResponse(p *packet) {
	sid := int(p.hdr.SID)
	if sid < len(co.outstanding) && co.outstanding[sid] > 0 {
		co.outstanding[sid]--
	}

	key := p.hdr.LamportID()
	forwarded, isPair := co.pendingPair[key]
	if isPair && forwarded {
		// Redundant slower response: processed (CPU already charged)
		// and discarded.
		delete(co.pendingPair, key)
		co.cl.freePacket(p)
	} else {
		if isPair {
			co.pendingPair[key] = true
		}
		co.cpuSchedule(evCoTxClient, p, int64(p.hdr.ClientID))
	}

	// A response frees capacity: dispatch the queue head (§2.2 "The
	// buffered request is dispatched to a server upon receiving a
	// response").
	if co.queue.len() > 0 && len(co.idleServers()) > 0 {
		co.dispatch(co.queue.pop())
	}
}

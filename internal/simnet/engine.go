// Package simnet is a minimal deterministic discrete-event engine with
// nanosecond virtual time. It is the substrate under the cluster
// simulation that reproduces the paper's testbed (DESIGN.md §1): events
// fire in non-decreasing time order, ties break in scheduling order
// (FIFO), and identical seeds produce identical runs.
//
// The engine is organized around burst draining (DESIGN.md
// § Performance model): pending events live in a two-tier calendar —
// a ring of fine fixed-width time buckets for the near future and a
// coarse far tier whose buckets each span half a ring — so scheduling
// is an O(1) chain push at any distance a simulation reaches instead of
// a heap sift, and execution pops the occupied buckets of a small
// leading time window at once — the burst — into a reusable index
// batch, sorts each bucket's chain as one segment of the batch, and
// dispatches it as a tight linear scan. Equal-timestamp events always
// share a bucket, so a burst contains at minimum every queued event of
// the head timestamp. The dispatch order is exactly the (at, seq)
// total order a per-event heap would pop; the tiers only bucket events
// by time and never compare two of them, so both are a pure
// scheduling-machinery optimization, observable only as wall-clock
// speed.
//
// Event records are stored once in a growable slab and never move;
// every queue structure (ring and far chains, the batch, the overflow
// heap) holds int32 slab indices. Moving indices instead of records
// keeps the sort and heap machinery free of GC write barriers —
// eventRec carries an interface payload, so record copies are
// barrier-traffic a profile showed dominating a value-based layout. For
// the same reason a record is written once, in place, when it is
// scheduled and read field by field when it is dispatched: it is never
// built or copied out whole.
//
// Hot callers Register a Handler once and schedule through the typed
// Schedule/ScheduleAfter API with the returned handler ID — events
// carry the 4-byte ID, not the interface value; At/After remain for
// cold paths and tests, paying one closure allocation per call exactly
// as before.
package simnet

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time = int64

// Handler receives typed events. Implementations are the simulation's
// node objects (switch, server, client, ...); kind selects the action
// and arg/x carry the payload — a pointer payload in arg stores into
// the event record without allocating. Handlers are registered once
// (Register) and addressed by their dense ID on every schedule, so the
// per-event record carries a 4-byte index instead of a 16-byte
// interface value — half the pointer stores, half the GC write-barrier
// traffic on the scheduling fast path.
type Handler interface {
	OnEvent(kind uint8, arg any, x int64)
}

// eventRec is one scheduled event, stored in the engine's slab.
// Exactly one of hid (typed event, registered handler ID) and
// arg-as-func (closure event, hid == 0) is used at dispatch. nxt chains
// records into a bucket (or the free list) by slab index; records never
// move once written.
type eventRec struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal times
	x    int64
	arg  any
	hid  int32
	nxt  int32
	kind uint8
}

// Calendar geometry, two tiers. The fine bucket width (128 ns) is
// chosen below the simulated cluster's smallest calibrated delay
// (150 ns dispatcher cost), so an event a handler schedules mid-burst
// almost always lands in a later bucket via the O(1) fast path; only
// near-zero delays merge into the running burst by splice.
//
// The ring has numBuckets fine buckets (2048 x 128 ns ≈ 262 µs). The
// far tier behind it has numFar coarse buckets of 2^farShift fine
// buckets each — half a ring, 2^17 ns ≈ 131 µs — so it reaches
// 1024 x 131 µs ≈ 134 ms: past every inter-arrival gap the suite
// draws, including the ≈5.5 ms of a 1e5-client point. What divides the
// tiers is the far edge, far bucket farBase:
//
//	the ring (with the burst collected from it) holds exactly the
//	pending events whose fine bucket is below farBase<<farShift, and
//	farBase <= curB>>farShift + farLead.
//
// The first half is what makes the order safe: everything in the ring
// precedes everything behind the edge, so the tiers never have to
// compare two events. The second is what makes the ring safe: it spans
// at most numBuckets, so no two pending ring events share a slot
// without sharing a bucket. A whole far bucket spills into the ring as
// the cursor enters the half-ring before it — not when the ring runs
// dry — so every burst starts with the edge farLead (2) half-rings past
// the start of the cursor's own and the ring horizon stays between
// 131 µs and 262 µs: never under half a ring, and past the Exp(25 µs)
// service tail, so the cluster's own delays file straight into the
// ring. Only events beyond the far horizon (fault
// transitions seconds out, tests that schedule at 2^62) reach the
// slow-path heap, and they migrate into the far tier as the edge
// advances.
const (
	bucketShift = 7  // 128 ns per fine bucket
	farShift    = 10 // 1024 fine buckets per far bucket
	farLead     = 2  // far buckets the edge may lead the cursor's by
	numBuckets  = farLead << farShift
	bucketMask  = numBuckets - 1
	occWords    = numBuckets / 64

	farTimeShift = bucketShift + farShift // 2^17 ns per far bucket
	numFar       = 1024
	farMask      = numFar - 1
	farOccWords  = numFar / 64

	nilIdx = int32(-1)

	// burstSpanBuckets bounds how far past the head bucket one burst
	// collects (4 x 128 ns = 512 ns). Wider bursts amortize the burst
	// machinery over more events but turn more mid-burst schedules into
	// sorted-batch splices instead of O(1) chain pushes; 512 ns sits
	// just above the cluster's sub-µs hop delays, which a sweep
	// (1/2/4/8/16/32) found the best trade. burstMaxEvents caps batch
	// growth under event storms (e.g. thousands of t=0 start events) so
	// splices stay cheap.
	burstSpanBuckets = 4
	burstMaxEvents   = 256

	// initialSlabCap sizes the first slab allocation; the slab doubles
	// when the pending-event high-water mark outgrows it, so a run pays
	// O(log peak) allocations for event storage in total. The tracked
	// cluster benchmark peaks near 100 pending events, so 128 covers the
	// common case in a single cache-friendly allocation.
	initialSlabCap = 128
)

// Engine is a single-threaded discrete-event scheduler. The zero value
// is ready to use at time 0.
type Engine struct {
	now   Time
	seq   uint64
	steps uint64

	// Event storage: records live at a fixed slab index from schedule
	// to dispatch; free slots chain through nxt starting at freeHead.
	slab     []eventRec
	freeHead int32

	// Calendar ring: head[b&bucketMask] chains (unordered) the events
	// with at>>bucketShift == b for b in [curB, farBase<<farShift). occ
	// is the slot-occupancy bitmap used to skip empty buckets in O(1).
	curB      int64
	ringCount int
	head      [numBuckets]int32
	occ       [occWords]uint64

	// Far tier: farHead[f&farMask] chains (unordered) the events with
	// at>>farTimeShift == f for f in [farBase, farBase+numFar), with
	// its own occupancy bitmap. farBase is the far edge (see the
	// geometry comment for the invariant that ties it to curB).
	farBase  int64
	farCount int
	farHead  [numFar]int32
	farOcc   [farOccWords]uint64

	// Burst state: the bucket being drained, its indices collected into
	// batch and sorted by (at, seq). batchPos is the dispatch cursor.
	// Events scheduled at or before the burst's bucket window while it
	// drains are spliced into the sorted remainder at their (at, seq)
	// position — an int32 memmove, not a record move. The state
	// persists across calls, so a deadline can pause mid-burst and the
	// next call resumes exactly where the previous one stopped.
	draining bool
	burstB   int64
	batch    []int32
	batchPos int

	overflow []int32 // binary min-heap: events beyond the far horizon

	// handlers[hid-1] is the target of typed events scheduled with hid;
	// ID 0 means a closure event. Registration order is irrelevant to
	// event order — IDs are pure dispatch indices.
	handlers []Handler

	// tel, when non-nil, is the observational telemetry probe
	// (telemetry.go): burst counters and occupancy gauges, written only
	// from the new-burst path behind this nil check. Never consulted on
	// the per-event dispatch path.
	tel *Telemetry
}

// Register assigns h a dense handler ID for typed scheduling. IDs are
// valid until Reset, which drops all registrations.
func (e *Engine) Register(h Handler) int32 {
	e.handlers = append(e.handlers, h)
	return int32(len(e.handlers))
}

// NewEngine returns an engine at virtual time 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.initStorage()
	return e
}

func (e *Engine) initStorage() {
	e.slab = make([]eventRec, 0, initialSlabCap)
	e.freeHead = nilIdx
	e.clearCalendar()
}

// clearCalendar empties both tiers and re-anchors them at the clock:
// the cursor on now's bucket, the far edge farLead half-rings past the
// start of the cursor's. The caller owns whatever the chains held.
func (e *Engine) clearCalendar() {
	for i := range e.head {
		e.head[i] = nilIdx
	}
	for i := range e.farHead {
		e.farHead[i] = nilIdx
	}
	e.occ = [occWords]uint64{}
	e.farOcc = [farOccWords]uint64{}
	e.ringCount, e.farCount = 0, 0
	e.curB = e.now >> bucketShift
	e.farBase = e.curB>>farShift + farLead
}

// alloc returns a free slab index, growing the slab when the free list
// is empty. Slab growth moves records (append copy), but every
// reference into the slab is an index, so nothing dangles.
func (e *Engine) alloc() int32 {
	if e.slab == nil {
		// Zero-value engine: freeHead (0) and the chain heads (0) are not
		// yet the nilIdx sentinels, so storage must be initialized before
		// the free-list check — alloc runs before any container access on
		// every schedule path, making this the single lazy-init point.
		e.initStorage()
	}
	if e.freeHead != nilIdx {
		i := e.freeHead
		e.freeHead = e.slab[i].nxt
		return i
	}
	e.slab = append(e.slab, eventRec{})
	return int32(len(e.slab) - 1)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	return e.ringCount + e.farCount + len(e.overflow) + (len(e.batch) - e.batchPos)
}

// Steps returns the number of events executed so far — the simulator's
// raw throughput unit (events/sec = Steps / wall time).
func (e *Engine) Steps() uint64 {
	return e.steps
}

// Reset returns the engine to virtual time 0 with no pending events,
// no registered handlers, and a fresh sequence counter, retaining every
// container's capacity so a reused engine schedules without re-growing.
func (e *Engine) Reset() {
	clear(e.slab) // drop payload references so recycled engines don't pin them
	e.slab = e.slab[:0]
	e.freeHead = nilIdx
	e.now, e.seq, e.steps = 0, 0, 0
	e.clearCalendar()
	e.batch = e.batch[:0]
	e.overflow = e.overflow[:0]
	e.batchPos = 0
	e.draining = false
	clear(e.handlers) // drop handler references so recycled engines don't pin them
	e.handlers = e.handlers[:0]
	e.tel = nil // pooled engines must not carry a probe forward
}

// before orders slab indices by the records' (at, seq). The order is
// total — seq is unique — so every correct engine pops the exact same
// sequence and determinism does not depend on the container layout or
// drain strategy.
func (e *Engine) before(a, b int32) bool {
	ra, rb := &e.slab[a], &e.slab[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// schedule enqueues one event at absolute time t. Times in the past are
// clamped to now, so the event runs at the current time after all
// already-queued events for that time (FIFO via seq).
//
// The record is written once, through a pointer taken after alloc (which
// may grow the slab), and the common destination — a ring bucket past
// the live burst — is pushed here, inline; insert files everything
// else.
func (e *Engine) schedule(t Time, hid int32, kind uint8, arg any, x int64) {
	if t < e.now {
		t = e.now
	}
	if e.seq == math.MaxUint64 {
		// Sequence-counter wraparound would mint a tie-breaker below
		// already-queued events and violate FIFO. Renumber the pending
		// events (order-preserving) and restart the counter; at 10^9
		// events/sec this branch is ~584 years away, but correctness
		// here is what the FIFO guarantee rests on.
		e.renumber()
	}
	e.seq++
	i := e.alloc()
	rec := &e.slab[i]
	rec.at, rec.seq, rec.x, rec.arg, rec.hid, rec.kind = t, e.seq, x, arg, hid, kind
	b := t >> bucketShift
	if b < e.farBase<<farShift && !(e.draining && b <= e.burstB) {
		e.chainPush(int(b)&bucketMask, i)
		return
	}
	e.insert(i)
}

// insert places one stored record into the structure that owns its
// timestamp: spliced into the running burst when it lands at or before
// the bucket being drained (so it merges into the dispatch order), a
// ring bucket below the far edge, a far chain within the far horizon,
// or the overflow heap beyond it. The three calendar destinations are
// chosen by time alone.
func (e *Engine) insert(i int32) {
	b := e.slab[i].at >> bucketShift
	f := b >> farShift
	switch {
	case e.draining && b <= e.burstB:
		e.splice(i)
	case f < e.farBase:
		e.chainPush(int(b)&bucketMask, i)
	case f-e.farBase < numFar:
		slot := int(f) & farMask
		e.slab[i].nxt = e.farHead[slot]
		e.farHead[slot] = i
		e.farOcc[slot>>6] |= 1 << (slot & 63)
		e.farCount++
	default:
		e.overflow = e.heapPush(e.overflow, i)
	}
}

// chainPush prepends record i to bucket chain slot (LIFO; the segment
// sort rewrites the order at collection).
func (e *Engine) chainPush(slot int, i int32) {
	e.slab[i].nxt = e.head[slot]
	e.head[slot] = i
	e.occ[slot>>6] |= 1 << (slot & 63)
	e.ringCount++
}

// splice inserts index i into the sorted remainder batch[batchPos:] at
// its (at, seq) position. A freshly scheduled event carries the highest
// seq, so an equal-timestamp splice lands at the very end (pure append)
// and only a genuinely earlier timestamp pays the int32 memmove.
func (e *Engine) splice(i int32) {
	lo, hi := e.batchPos, len(e.batch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.before(e.batch[mid], i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.batch = append(e.batch, i)
	if lo < len(e.batch)-1 {
		copy(e.batch[lo+1:], e.batch[lo:])
		e.batch[lo] = i
	}
}

// renumber compacts the sequence space: pending events keep their
// relative order but are renumbered 1..n. The containers are rebuilt
// from scratch — this is the cold path (tests, or once per 2^64
// events), and rebuilding keeps the calendar/burst invariants trivially
// true even when the wraparound lands mid-burst.
func (e *Engine) renumber() {
	all := make([]int32, 0, e.Pending())
	all = append(all, e.batch[e.batchPos:]...)
	for _, heads := range [][]int32{e.head[:], e.farHead[:]} {
		for _, i := range heads {
			for ; i != nilIdx; i = e.slab[i].nxt {
				all = append(all, i)
			}
		}
	}
	all = append(all, e.overflow...)
	slices.SortFunc(all, func(a, b int32) int {
		if e.before(a, b) {
			return -1
		}
		return 1
	})
	for n, i := range all {
		e.slab[i].seq = uint64(n) + 1
	}
	e.seq = uint64(len(all))

	// Re-anchor the calendar at the clock; every pending event is at or
	// after now, so the whole set re-inserts into [curB, ∞).
	e.clearCalendar()
	e.batch = e.batch[:0]
	e.overflow = e.overflow[:0]
	e.batchPos = 0
	e.draining = false
	for _, i := range all {
		e.insert(i)
	}
}

// Schedule enqueues a typed event for the registered handler hid at
// absolute time t. Scheduling in the past (or present) runs at the
// current time, after already-queued events for that time.
func (e *Engine) Schedule(t Time, hid int32, kind uint8, arg any, x int64) {
	e.schedule(t, hid, kind, arg, x)
}

// ScheduleAfter enqueues a typed event d nanoseconds from now.
// Non-positive delays run at the current time.
func (e *Engine) ScheduleAfter(d int64, hid int32, kind uint8, arg any, x int64) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, hid, kind, arg, x)
}

// At schedules fn to run at absolute time t. Scheduling in the past (or
// present) runs at the current time, after already-queued events for that
// time.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, 0, 0, fn, 0)
}

// After schedules fn to run d nanoseconds from now. Non-positive delays
// run at the current time.
func (e *Engine) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, 0, 0, fn, 0)
}

// heapPush adds index i to a binary min-heap ordered by (at, seq).
func (e *Engine) heapPush(h []int32, i int32) []int32 {
	h = append(h, i)
	c := len(h) - 1
	for c > 0 {
		parent := (c - 1) / 2
		if !e.before(h[c], h[parent]) {
			break
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
	return h
}

// heapPop removes and returns the minimum of a binary (at, seq) heap.
func (e *Engine) heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.before(h[c+1], h[c]) {
			c++
		}
		if !e.before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// nextSet returns the distance from bit start of the occupancy bitmap
// occ (a power-of-two number of words, scanned cyclically) to the
// nearest set bit at or after it. Must only be called with a bit set.
func nextSet(occ []uint64, start int) int64 {
	w, bit := start>>6, start&63
	if x := occ[w] >> bit; x != 0 {
		return int64(bits.TrailingZeros64(x))
	}
	d := int64(64 - bit)
	for i := 1; i < len(occ); i++ {
		if x := occ[(w+i)&(len(occ)-1)]; x != 0 {
			return d + int64(bits.TrailingZeros64(x))
		}
		d += 64
	}
	// Wrap around into the starting word's low bits.
	x := occ[w] & (1<<bit - 1)
	return d + int64(bits.TrailingZeros64(x))
}

// spillTo advances the far edge to far bucket f: every far chain below
// it moves into the ring, bucket by time, and the heap events the far
// horizon now covers are refiled the same way. Callers keep f within
// farLead of the cursor's far bucket, so the loop runs once or twice.
func (e *Engine) spillTo(f int64) {
	for ; e.farBase < f; e.farBase++ {
		slot := int(e.farBase) & farMask
		i := e.farHead[slot]
		if i == nilIdx {
			continue
		}
		e.farHead[slot] = nilIdx
		e.farOcc[slot>>6] &^= 1 << (slot & 63)
		for i != nilIdx {
			nxt := e.slab[i].nxt
			e.chainPush(int(e.slab[i].at>>bucketShift)&bucketMask, i)
			e.farCount--
			i = nxt
		}
	}
	for len(e.overflow) > 0 && e.slab[e.overflow[0]].at>>farTimeShift-f < numFar {
		var i int32
		i, e.overflow = e.heapPop(e.overflow)
		e.insert(i)
	}
}

// ensureBurst makes the engine's burst state hold the next pending
// events: if a burst is already in progress it is kept, otherwise the
// earliest occupied bucket's chain is collected into the batch buffer
// and sorted. Returns false when no events are pending anywhere.
func (e *Engine) ensureBurst() bool {
	if e.draining {
		return true
	}
	if e.ringCount == 0 {
		// Ring empty: jump the cursor and the far edge straight to the
		// next occupied far bucket — every far bucket before it is empty,
		// and every heap event lies beyond them all — or, with the far
		// tier empty too, to the heap head's.
		switch {
		case e.farCount > 0:
			e.farBase += nextSet(e.farOcc[:], int(e.farBase)&farMask)
		case len(e.overflow) > 0:
			e.farBase = e.slab[e.overflow[0]].at >> farTimeShift
		default:
			return false
		}
		e.curB = e.farBase << farShift
		e.spillTo(e.farBase + 1)
	}
	// Everything in the ring precedes everything behind the far edge, so
	// the nearest occupied bucket holds the earliest pending events.
	// Entering the half-ring before the edge spills the next far bucket:
	// that keeps the ring horizon at half a ring or more, and — done
	// ahead of the collection below — lets a burst window that starts
	// in a half-ring's last buckets take in the first of the next.
	e.curB += nextSet(e.occ[:], int(e.curB)&bucketMask)
	if f := e.curB>>farShift + farLead; f > e.farBase {
		e.spillTo(f)
	}

	// Collect every occupied bucket in [curB, curB+burstSpanBuckets)
	// into one burst. Multiple buckets per burst amortizes the fixed
	// burst machinery (bitmap scan, far-edge check, drain transitions)
	// across an order of magnitude more events. Each bucket's chain is
	// sorted as its own segment; bucket ranges are disjoint and
	// collected in increasing order, so the concatenation is globally
	// (at, seq) sorted. Chain order is push order (reversed arrival),
	// which the segment sort fully rewrites, so no order is owed to the
	// chain itself.
	e.batch = e.batch[:0]
	e.batchPos = 0
	last := e.curB
	b := e.curB
	remaining := int64(burstSpanBuckets)
	for remaining > 0 && e.ringCount > 0 && len(e.batch) < burstMaxEvents {
		slot := int(b) & bucketMask
		w, bit := slot>>6, slot&63
		chunk := int64(64 - bit)
		if chunk > remaining {
			chunk = remaining
		}
		// One word of the occupancy bitmap at a time: x holds the
		// occupied buckets among [b, b+chunk).
		x := e.occ[w] >> bit
		if chunk < 64 {
			x &= 1<<uint(chunk) - 1
		}
		for x != 0 && len(e.batch) < burstMaxEvents {
			d := int64(bits.TrailingZeros64(x))
			x &= x - 1
			bb := b + d
			sl := int(bb) & bucketMask
			segStart := len(e.batch)
			for i := e.head[sl]; i != nilIdx; i = e.slab[i].nxt {
				e.batch = append(e.batch, i)
			}
			e.head[sl] = nilIdx
			e.occ[sl>>6] &^= 1 << (sl & 63)
			e.ringCount -= len(e.batch) - segStart
			if len(e.batch)-segStart > 1 {
				e.sortSegment(segStart)
			}
			last = bb
		}
		b += chunk
		remaining -= chunk
	}
	// Anchor the ring cursor at the last collected bucket: every event
	// still in the ring is strictly later (all occupied buckets at or
	// before it were just collected), and mid-burst schedules at or
	// before it splice into the batch instead (see insert).
	e.curB = last
	e.burstB = last
	e.draining = true
	if e.tel != nil {
		e.observeBurst()
	}
	return true
}

// sortSegment orders batch[segStart:] by (at, seq). Segments are small —
// one bucket's worth — so the common case is a direct insertion sort
// over the int32 indices with the keys read straight from the slab; the
// generic sort only runs for outsized segments (e.g. thousands of t=0
// start events in a scale run).
func (e *Engine) sortSegment(segStart int) {
	b, s := e.batch[segStart:], e.slab
	if len(b) > 32 {
		slices.SortFunc(b, func(a, b int32) int {
			if e.before(a, b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(b); i++ {
		x := b[i]
		xa, xs := s[x].at, s[x].seq
		j := i - 1
		for j >= 0 {
			r := &s[b[j]]
			if r.at < xa || (r.at == xa && r.seq < xs) {
				break
			}
			b[j+1] = b[j]
			j--
		}
		b[j+1] = x
	}
}

// endBurstIfDone closes the burst once the cursor has consumed the
// batch. Called after every dispatch, because a handler can splice new
// events into the batch (extending the burst) or force a renumber
// (which rebuilds the burst state wholesale).
func (e *Engine) endBurstIfDone() {
	if e.draining && e.batchPos == len(e.batch) {
		e.batch = e.batch[:0]
		e.batchPos = 0
		e.draining = false
	}
}

// dispatch runs the event at slab index i. The fields the callback
// needs are loaded into locals and the slot released before it runs:
// the callback may schedule (growing or reusing the slab), so no slab
// pointer may be held across it, and releasing first lets steady-state
// traffic cycle through a slab no larger than the pending high-water
// mark.
func (e *Engine) dispatch(i int32) {
	rec := &e.slab[i]
	at, x, arg, hid, kind := rec.at, rec.x, rec.arg, rec.hid, rec.kind
	// Release the slot, dropping the payload reference so a dispatched
	// event does not pin its argument until the slot is reused.
	rec.arg = nil
	rec.nxt = e.freeHead
	e.freeHead = i
	e.now = at
	e.steps++
	if hid != 0 {
		e.handlers[hid-1].OnEvent(kind, arg, x)
	} else {
		arg.(func())()
	}
}

// Step runs the earliest pending event and returns true, or returns false
// if none remain.
func (e *Engine) Step() bool {
	if !e.ensureBurst() {
		return false
	}
	i := e.batch[e.batchPos]
	e.batchPos++
	e.dispatch(i)
	e.endBurstIfDone()
	return true
}

// DrainBatch pops the next burst — every pending event of the earliest
// occupied bucket window, which always includes all equal-timestamp
// events at the head of the queue — into the engine's reusable batch
// buffer and dispatches it in exact (at, seq) order, stopping at events
// later than horizon (they stay queued, and the paused burst resumes on
// the next call). Returns the number of events dispatched; 0 means no
// pending event is due at or before horizon.
func (e *Engine) DrainBatch(horizon Time) int {
	if !e.ensureBurst() {
		return 0
	}
	n := 0
	// endBurstIfDone flips draining off when the burst ends; a handler
	// that forces a seq renumber mid-burst rebuilds the burst state
	// wholesale, and the loop condition re-reads it every iteration.
	for e.draining {
		i := e.batch[e.batchPos]
		if e.slab[i].at > horizon {
			break
		}
		e.batchPos++
		e.dispatch(i)
		e.endBurstIfDone()
		n++
	}
	return n
}

// RunUntil processes events in burst mode until the queue is empty or
// the next event is later than deadline. The clock ends at
// max(deadline, last event time); events after deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.DrainBatch(deadline) > 0 {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run processes all events to exhaustion.
func (e *Engine) Run() {
	for e.DrainBatch(math.MaxInt64) > 0 {
	}
}

// NewRNG derives a deterministic RNG for a component: same (seed, stream)
// always yields the same sequence, and distinct streams are independent.
func NewRNG(seed, stream uint64) *rand.Rand {
	r := new(RNG)
	r.Seed(seed, stream)
	return &r.Rand
}

// RNG is a component generator held by value: the PCG state and the
// Rand drawing from it in one struct, so a slab of entities carries its
// generators inline instead of two heap objects apiece. Seed it where
// it will live; copying a seeded RNG leaves the copy drawing from the
// original's state.
type RNG struct {
	rand.Rand
	pcg rand.PCG
}

// Seed (re)starts the generator on NewRNG's (seed, stream) sequence.
func (r *RNG) Seed(seed, stream uint64) {
	r.pcg.Seed(seed, stream*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)
	r.Rand = *rand.New(&r.pcg)
}

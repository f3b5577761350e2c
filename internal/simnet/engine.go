// Package simnet is a minimal deterministic discrete-event engine with
// nanosecond virtual time. It is the substrate under the cluster
// simulation that reproduces the paper's testbed (DESIGN.md §1): events
// fire in non-decreasing time order, ties break in scheduling order
// (FIFO), and identical seeds produce identical runs.
//
// Pending events live in a two-tier calendar (DESIGN.md § Performance
// model): a ring of fine time buckets for the near future and a coarse
// far tier behind it, so scheduling is an O(1) push at any
// distance a simulation reaches. Execution collects the occupied
// buckets of a small leading window at once — the burst — into a
// reusable index batch, orders each bucket's chain as one segment, and
// dispatches the batch as a linear scan. No event carries a sequence
// number: every structure holds its events in scheduling order and
// every move between structures preserves it, so the only comparison
// left is a stable sort by time inside one bucket.
//
// Event records are written once, in place, into a growable slab and
// never move; every queue structure holds int32 slab indices, so
// reordering events moves 4-byte integers with no GC write barriers
// (eventRec carries an interface payload). Callers Register a Handler
// once and schedule through Schedule/ScheduleAfter with its ID.
package simnet

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Time is virtual time in nanoseconds since the start of the run.
type Time = int64

// Handler receives typed events. The simulation registers one per node
// (simcluster gives all of them one concrete type); kind selects the action
// and arg/x carry the payload — a pointer payload in arg stores into
// the event record without allocating. Handlers are registered once
// (Register) and addressed by their dense ID on every schedule, so the
// per-event record carries a 4-byte index instead of a 16-byte
// interface value — half the pointer stores, half the GC write-barrier
// traffic on the scheduling fast path.
type Handler interface {
	OnEvent(kind uint8, arg any, x int64)
}

// eventRec is one scheduled event, stored in the engine's slab (48
// bytes). nxt chains records into a bucket (or the free list) by slab
// index; records never move once written.
type eventRec struct {
	at   Time
	x    int64
	arg  any
	hid  int32
	nxt  int32
	kind uint8
}

// Calendar geometry, two tiers. The fine bucket width (16 ns) is what
// keeps segments short: the densest fabric the suite simulates offers
// ~300 events per µs, a handful per 16 ns bucket.
//
// The ring has numBuckets fine buckets (16,384 x 16 ns ≈ 262 µs). The
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
// 131 µs and 262 µs, past the Exp(25 µs) service tail, so the
// cluster's own delays file straight into the ring. Only events beyond
// the far horizon (fault transitions seconds out, tests that schedule
// at 2^62) reach the overflow list, and they migrate into the far tier
// as the edge advances.
const (
	bucketShift = 4  // 16 ns per fine bucket
	farShift    = 13 // 8192 fine buckets per far bucket
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
	// collects (32 x 16 ns = 512 ns). Wider bursts amortize the burst
	// machinery over more events but turn more mid-burst schedules into
	// batch splices instead of O(1) chain pushes; 512 ns sits just above
	// the cluster's sub-µs hop delays, which a sweep found the best
	// trade. burstMaxEvents caps batch growth under event storms (e.g.
	// thousands of t=0 start events) so splices stay cheap.
	burstSpanBuckets = 32
	burstMaxEvents   = 256

	// initialSlabCap sizes the first slab allocation; the slab doubles
	// when the pending-event high-water mark outgrows it, so a run pays
	// O(log peak) allocations for event storage in total.
	initialSlabCap = 128
)

// farBlockLen is the capacity of one far-tier block: 62 indices, so a
// block with its count and link is 256 bytes.
const farBlockLen = 62

// farBlock is one block of a far-tier list: idx[:n] in scheduling
// order, then the block at index next (nilIdx ends the list). Free
// blocks chain through next from Engine.farFree.
type farBlock struct {
	idx  [farBlockLen]int32
	n    int32
	next int32
}

// Engine is a single-threaded discrete-event scheduler. The zero value
// is ready to use at time 0.
type Engine struct {
	now   Time
	steps uint64

	// Event storage: records live at a fixed slab index from schedule
	// to dispatch; free slots chain through nxt starting at freeHead.
	slab     []eventRec
	freeHead int32

	// Calendar ring: head[b&bucketMask] chains, newest first, the events
	// with at>>bucketShift == b for b in [curB, farBase<<farShift). occ
	// is the slot-occupancy bitmap used to skip empty buckets in O(1),
	// and the only record of which slots hold a chain: an empty slot's
	// head is stale, so emptying the calendar clears the bitmaps alone.
	curB      int64
	ringCount int
	head      [numBuckets]int32
	occ       [occWords]uint64

	// Far tier: far slot f&farMask lists, in scheduling order, the slab
	// indices of the events with at>>farTimeShift == f for f in
	// [farBase, farBase+numFar), under the same bitmap rule: an empty
	// slot's list is stale. farBase is the far edge (see the geometry
	// comment for the invariant that ties it to curB). A list is a chain
	// of fixed-size index blocks, farHead[slot] to farTail[slot], carved
	// from the growable farBlk slab; a spill scans whole blocks instead
	// of chasing nxt through records scheduled up to a far bucket apart,
	// and hands them to the farFree chain for the next list to fill.
	farBase  int64
	farCount int
	farHead  [numFar]int32
	farTail  [numFar]int32
	farOcc   [farOccWords]uint64
	farBlk   []farBlock
	farFree  int32

	// Burst state: the buckets being drained, their indices collected
	// into batch in (at, scheduling order). batchPos is the dispatch
	// cursor. Events scheduled at or before the burst's last bucket
	// while it drains are spliced into the remainder — an int32
	// memmove, not a record move. The state persists across calls, so a
	// deadline can pause mid-burst and the next call resumes exactly
	// where the previous one stopped.
	draining bool
	burstB   int64
	batch    []int32
	batchPos int

	// overflow holds the events beyond the far horizon in scheduling
	// order; spillTo moves the ones the horizon reaches, keeping the
	// rest in order.
	overflow []int32

	// scratch is reused by sortSegment's counting pass, so it does not
	// allocate once warm.
	scratch []int32

	// handlers[hid-1] is the target of events scheduled with hid; IDs
	// are pure dispatch indices, irrelevant to event order.
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
	e.occ = [occWords]uint64{}
	e.farOcc = [farOccWords]uint64{}
	e.farBlk, e.farFree = e.farBlk[:0], nilIdx
	e.ringCount, e.farCount = 0, 0
	e.curB = e.now >> bucketShift
	e.farBase = e.curB>>farShift + farLead
}

// alloc returns a free slab index, growing the slab when the free list
// is empty. Slab growth moves records (append copy), but every
// reference into the slab is an index, so nothing dangles.
func (e *Engine) alloc() int32 {
	if e.slab == nil {
		// Zero-value engine: freeHead (0) is not yet the nilIdx sentinel,
		// so storage must be initialized before the free-list check —
		// alloc runs before any container access on every schedule path,
		// making this the single lazy-init point.
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

// Reset returns the engine to virtual time 0 with no pending events and
// no registered handlers, retaining every container's capacity so a
// reused engine schedules without re-growing.
func (e *Engine) Reset() {
	clear(e.slab) // drop payload references so recycled engines don't pin them
	e.slab = e.slab[:0]
	e.freeHead = nilIdx
	e.now, e.steps = 0, 0
	e.clearCalendar()
	e.batch = e.batch[:0]
	e.overflow = e.overflow[:0]
	e.batchPos = 0
	e.draining = false
	clear(e.handlers) // drop handler references so recycled engines don't pin them
	e.handlers = e.handlers[:0]
	e.tel = nil // pooled engines must not carry a probe forward
}

// Schedule enqueues a typed event for the registered handler hid at
// absolute time t. Times in the past are clamped to now, so the event
// runs at the current time after every already-queued event for that
// time.
//
// The record is written once, through a pointer taken after alloc (which
// may grow the slab), and the common destination — a ring bucket past
// the live burst — is pushed here, inline; insert files everything
// else.
func (e *Engine) Schedule(t Time, hid int32, kind uint8, arg any, x int64) {
	if t < e.now {
		t = e.now
	}
	i := e.alloc()
	rec := &e.slab[i]
	rec.at, rec.x, rec.arg, rec.hid, rec.kind = t, x, arg, hid, kind
	b := t >> bucketShift
	if b < e.farBase<<farShift && !(e.draining && b <= e.burstB) {
		e.chainPush(int(b)&bucketMask, i)
		return
	}
	e.insert(i)
}

// ScheduleAfter enqueues a typed event d nanoseconds from now.
// Non-positive delays run at the current time.
func (e *Engine) ScheduleAfter(d int64, hid int32, kind uint8, arg any, x int64) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, hid, kind, arg, x)
}

// insert places one stored record into the structure that owns its
// timestamp: spliced into the running burst when it lands at or before
// the last bucket being drained (so it merges into the dispatch order),
// a ring bucket below the far edge, a far list within the far horizon,
// or the overflow list beyond it. The destination is chosen by time
// alone, and i must be the latest-scheduled event its destination will
// hold: every destination appends.
func (e *Engine) insert(i int32) {
	b := e.slab[i].at >> bucketShift
	f := b >> farShift
	switch {
	case e.draining && b <= e.burstB:
		e.splice(i)
	case f < e.farBase:
		e.chainPush(int(b)&bucketMask, i)
	case f-e.farBase < numFar:
		e.farPush(int(f)&farMask, i)
	default:
		e.overflow = append(e.overflow, i)
	}
}

// chainPush prepends record i to bucket chain slot: a chain is newest
// first, and collection reads it in reverse.
func (e *Engine) chainPush(slot int, i int32) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	nxt := e.head[slot]
	if e.occ[w]&bit == 0 {
		nxt = nilIdx // the slot was empty: its head is stale
	}
	e.slab[i].nxt = nxt
	e.head[slot] = i
	e.occ[w] |= bit
	e.ringCount++
}

// farPush appends record i to far slot's list, opening the list when
// the slot was empty (its head and tail are stale) and adding a block
// when the tail block is full.
func (e *Engine) farPush(slot int, i int32) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	if e.farOcc[w]&bit == 0 {
		b := e.newFarBlock()
		e.farHead[slot], e.farTail[slot] = b, b
		e.farOcc[w] |= bit
	} else if e.farBlk[e.farTail[slot]].n == farBlockLen {
		b := e.newFarBlock()
		e.farBlk[e.farTail[slot]].next = b
		e.farTail[slot] = b
	}
	t := &e.farBlk[e.farTail[slot]]
	t.idx[t.n] = i
	t.n++
	e.farCount++
}

// newFarBlock returns an empty block, reusing a spilled one when it can.
func (e *Engine) newFarBlock() int32 {
	b := e.farFree
	if b == nilIdx {
		e.farBlk = append(e.farBlk, farBlock{})
		b = int32(len(e.farBlk) - 1)
	} else {
		e.farFree = e.farBlk[b].next
	}
	e.farBlk[b].n, e.farBlk[b].next = 0, nilIdx
	return b
}

// splice inserts index i into the remainder batch[batchPos:] after the
// last entry with at <= its own: i was scheduled after every event in
// the batch, so that is its (at, scheduling order) position. An
// equal-timestamp splice lands at the very end (pure append) and only a
// genuinely earlier timestamp pays the int32 memmove.
func (e *Engine) splice(i int32) {
	t := e.slab[i].at
	lo, hi := e.batchPos, len(e.batch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.slab[e.batch[mid]].at <= t {
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

// spillTo advances the far edge to far bucket f: every far list below
// it moves into the ring, in its order (oldest first), each event into
// its own bucket, and the overflow events the far horizon now covers
// are refiled the same way, in order. Nothing can have been filed into
// a destination of theirs before them, so every chain stays in
// scheduling order. Callers keep f within farLead of the cursor's far
// bucket, so the loop runs once or twice.
func (e *Engine) spillTo(f int64) {
	for ; e.farBase < f; e.farBase++ {
		slot := int(e.farBase) & farMask
		if e.farOcc[slot>>6]>>(slot&63)&1 == 0 {
			continue
		}
		e.farOcc[slot>>6] &^= 1 << (slot & 63)
		for b := e.farHead[slot]; b != nilIdx; {
			blk := &e.farBlk[b]
			e.farCount -= int(blk.n)
			for _, i := range blk.idx[:blk.n] {
				e.chainPush(int(e.slab[i].at>>bucketShift)&bucketMask, i)
			}
			next := blk.next
			blk.next, e.farFree = e.farFree, b
			b = next
		}
	}
	kept := e.overflow[:0]
	for _, i := range e.overflow {
		if e.slab[i].at>>farTimeShift-f < numFar {
			e.insert(i)
		} else {
			kept = append(kept, i)
		}
	}
	e.overflow = kept
}

// ensureBurst makes the engine's burst state hold the next pending
// events: if a burst is already in progress it is kept, otherwise the
// occupied buckets of the leading window are collected into the batch
// buffer and ordered. Returns false when no events are pending anywhere.
func (e *Engine) ensureBurst() bool {
	if e.draining {
		return true
	}
	if e.ringCount == 0 {
		// Ring empty: jump the cursor and the far edge straight to the
		// next occupied far bucket — every far bucket before it is empty,
		// and every overflow event lies beyond them all — or, with the
		// far tier empty too, to the earliest overflow event's.
		switch {
		case e.farCount > 0:
			e.farBase += nextSet(e.farOcc[:], int(e.farBase)&farMask)
		case len(e.overflow) > 0:
			at := Time(math.MaxInt64)
			for _, i := range e.overflow {
				at = min(at, e.slab[i].at)
			}
			e.farBase = at >> farTimeShift
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
	// into one burst, amortizing the fixed burst machinery (bitmap scan,
	// far-edge check, drain transitions) over every event in the window.
	// Each bucket's chain is ordered as its own segment; bucket ranges
	// are disjoint and collected in increasing order, so the
	// concatenation is in (at, scheduling order).
	e.batch = e.batch[:0]
	e.batchPos = 0
	last := e.curB
	b := e.curB
	remaining := int64(burstSpanBuckets)
	for remaining > 0 && e.ringCount > 0 && len(e.batch) < burstMaxEvents {
		slot := int(b) & bucketMask
		w, bit := slot>>6, slot&63
		chunk := min(int64(64-bit), remaining)
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

// sortSegment puts batch[segStart:], one bucket's chain as collected
// (newest first), into (at, scheduling order): reversed, the segment is
// in scheduling order, and a stable sort by at finishes it. Segments are
// short, so the common case is an insertion sort over the int32 indices
// with the keys read straight from the slab — free when the bucket's
// events were scheduled in time order, or tie. A longer segment (e.g.
// thousands of t=0 start events) takes a stable counting pass over at's
// offset inside the bucket: 1<<bucketShift keys, no comparisons.
func (e *Engine) sortSegment(segStart int) {
	seg, s := e.batch[segStart:], e.slab
	slices.Reverse(seg)
	if len(seg) <= 32 {
		for i := 1; i < len(seg); i++ {
			x := seg[i]
			xa := s[x].at
			j := i - 1
			for j >= 0 && s[seg[j]].at > xa {
				seg[j+1] = seg[j]
				j--
			}
			seg[j+1] = x
		}
		return
	}
	const offMask = 1<<bucketShift - 1
	var pos [1<<bucketShift + 1]int
	for _, i := range seg {
		pos[s[i].at&offMask+1]++
	}
	for k := 1; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	src := append(e.scratch[:0], seg...)
	for _, i := range src {
		o := s[i].at & offMask
		seg[pos[o]] = i
		pos[o]++
	}
	e.scratch = src
}

// endBurstIfDone closes the burst once the cursor has consumed the
// batch. Called after every dispatch, because a handler can splice new
// events into the batch, extending the burst.
func (e *Engine) endBurstIfDone() {
	if e.draining && e.batchPos == len(e.batch) {
		e.batch = e.batch[:0]
		e.batchPos = 0
		e.draining = false
	}
}

// dispatch runs the event at slab index i. The fields the handler
// needs are loaded into locals and the slot released before it runs:
// the handler may schedule (growing or reusing the slab), so no slab
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
	e.handlers[hid-1].OnEvent(kind, arg, x)
}

// DrainBatch pops the next burst — every pending event of the earliest
// occupied bucket window, which always includes all equal-timestamp
// events at the head of the queue — into the engine's reusable batch
// buffer and dispatches it in exact (at, scheduling order), stopping at
// events later than horizon (they stay queued, and the paused burst
// resumes on the next call). Returns the number of events dispatched; 0
// means no pending event is due at or before horizon.
func (e *Engine) DrainBatch(horizon Time) int {
	if !e.ensureBurst() {
		return 0
	}
	n := 0
	// endBurstIfDone flips draining off when the burst ends; the loop
	// condition re-reads it every iteration.
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

// Mark returns where the generator stands; Rewind(m) takes it back
// there, so the draws made since Mark come again.
func (r *RNG) Mark() rand.PCG { return r.pcg }

// Rewind puts the generator back where Mark found it.
func (r *RNG) Rewind(m rand.PCG) { r.pcg = m }

package simnet

import (
	"fmt"
	"slices"
	"testing"
)

// Burst-boundary equivalence: draining in bursts is a pure scheduling
// optimization, so the batched paths — Run, DrainBatch, and RunUntil
// with arbitrary pause points — must pop the exact (at, scheduling
// order) sequence the one-event-at-a-time Step() loop pops, for any
// script. Scripts here are built to stress the burst machinery where it
// can break: heavy equal-timestamp ties (whole bursts at one instant),
// follow-up events landing inside the live burst window (the splice
// path), delays straddling the bucket and burst-window boundaries, the
// far edge between the calendar's two tiers, and the far horizon beyond
// which the overflow list takes over.

// farSpan and farHorizon are the two-tier geometry in nanoseconds: one
// far bucket (half a ring) and the whole far tier.
const (
	farSpan    = int64(1) << farTimeShift
	farHorizon = numFar * farSpan
)

// burstDelays are the follow-up delays a script byte selects from,
// chosen to straddle the burst geometry: 0 lands in the current burst
// (equal-timestamp splice), 1<<bucketShift-1 / 1<<bucketShift /
// 1<<bucketShift+1 straddle one bucket, and the larger values straddle
// the multi-bucket burst window, the far edge and the far horizon.
var burstDelays = [...]int64{
	0, 0, 0, 1, 2,
	1<<bucketShift - 1, 1 << bucketShift, 1<<bucketShift + 1,
	burstSpanBuckets<<bucketShift - 1, burstSpanBuckets << bucketShift,
	numBuckets << bucketShift, 3, 0, 5,
	// Straddle the longest ring horizon from both sides: the edge lies
	// between one and two far buckets past the cursor, so these land in
	// the ring or the far tier depending on where in its half-ring the
	// cursor stands (the TestOverflowPullBehindCursorRegression
	// geometry, one tier down).
	(numBuckets - 1) << bucketShift, (numBuckets + 1) << bucketShift,
	(numBuckets + burstSpanBuckets) << bucketShift,
	// The shortest ring horizon — one far bucket, half the ring — to the
	// nanosecond, and one burst window short of it.
	farSpan - 1, farSpan, farSpan + 1, farSpan - burstSpanBuckets<<bucketShift,
	// Several far buckets: filed in the far tier, spilled whole while
	// siblings at other delays are mid-burst.
	3 * farSpan, 7*farSpan + 5, 40*farSpan - 1,
	// The far horizon, measured from the clock (always inside the far
	// tier: the edge leads the clock) and from the edge itself: the last
	// far chain, the first overflow bucket from anywhere but a far
	// bucket's first nanosecond, and an overflow sibling two buckets
	// behind it.
	farHorizon - 1, farHorizon, farHorizon + 2<<bucketShift,
	farHorizon + (farLead-1)*farSpan, farHorizon + farLead*farSpan - 1,
	farHorizon + farLead*farSpan + 2<<bucketShift,
	// Overflow, then far tier, then ring: migrates as the edge advances.
	3 * farHorizon,
}

// burstScript is a deterministic schedule derived from a byte string:
// byte i gives event i's initial delay and whether it spawns follow-ups
// when it fires. Follow-ups take their byte round-robin and spawn in
// turn, up to maxEvents in all, so far-tier delays compound and a
// script files into the far tier from every cursor position, not only
// from t≈0. Every run of the same script fires the same multiset of
// (time, id) pairs; only the *order* is under test.
type burstScript []byte

func (s burstScript) byteOf(i int) byte { return s[i%len(s)] }

func (s burstScript) maxEvents() int { return 4 * len(s) }

func (s burstScript) initialDelay(i int) int64 {
	// Cluster initial events on few distinct timestamps so bursts are
	// wide and ties are the common case, not the corner case.
	return int64(s[i]&0x07) * 3
}

func (s burstScript) spawns(i int) bool { return s.byteOf(i)&0x18 == 0 }

// followDelay picks follow-up j's delay from the six bits spawns leaves
// free, so every entry of burstDelays is reachable.
func (s burstScript) followDelay(i, j int) int64 {
	c := s.byteOf(i)
	return burstDelays[(int(c>>5)<<3|int(c&0x07)+j)%len(burstDelays)]
}

// burstRecorder fires a script on one engine and records the sequence.
type burstRecorder struct {
	e      *Engine
	hid    int32
	script burstScript
	next   int // next unused id for follow-up events
	fires  []refFire
}

func (h *burstRecorder) OnEvent(_ uint8, _ any, x int64) {
	id := int(x)
	h.fires = append(h.fires, refFire{at: h.e.Now(), id: id})
	if h.script.spawns(id) {
		for j := 0; j < 2 && h.next < h.script.maxEvents(); j++ {
			h.e.ScheduleAfter(h.script.followDelay(id, j), h.hid, 0, nil, int64(h.next))
			h.next++
		}
	}
}

// runBurstScript schedules the script on a fresh engine and drains it
// with drive. It returns the firing sequence and the number of events
// scheduled in all.
func runBurstScript(script burstScript, drive func(*Engine)) ([]refFire, int) {
	e := NewEngine()
	h := &burstRecorder{e: e, script: script, next: len(script)}
	h.hid = e.Register(h)
	for i := range script {
		e.Schedule(script.initialDelay(i), h.hid, 0, nil, int64(i))
	}
	drive(e)
	return h.fires, h.next
}

// nextAt returns the time of the earliest pending event, or false when
// none is pending. Collecting the burst early is what any driver's next
// call would do first.
func nextAt(e *Engine) (Time, bool) {
	if !e.ensureBurst() {
		return 0, false
	}
	return e.slab[e.batch[e.batchPos]].at, true
}

// runUntilSteps drives e to exhaustion by RunUntil deadlines step apart.
// An idle gap longer than maxIdle is skipped to just short of the next
// event — far-tier delays open gaps of hundreds of milliseconds, and
// stepping across one (every call a no-op on a paused burst) proves
// nothing the first few steps did not.
func runUntilSteps(e *Engine, step, maxIdle int64) {
	for t := Time(1); ; t += step {
		next, ok := nextAt(e)
		if !ok {
			return
		}
		if next-t > maxIdle {
			t = next - step/2 - 1
		}
		e.RunUntil(t)
	}
}

// drainDrivers are the batched execution modes under test, each paired
// against the stepwise reference. RunUntil deadlines are chosen to pause
// a live burst mid-window (the horizon-break path) and resume it: 7 ns
// steps cut every burst several times, ~100 µs steps land inside the
// bursts that follow a far-bucket spill.
var drainDrivers = map[string]func(*Engine){
	"run": func(e *Engine) { e.Run() },
	"drainBatch": func(e *Engine) {
		for e.DrainBatch(1<<62) > 0 {
		}
	},
	"runUntilChunks": func(e *Engine) { runUntilSteps(e, 7, 8<<bucketShift) },
	"runUntilCoarse": func(e *Engine) { runUntilSteps(e, 99_991, 8*farSpan) },
}

func checkBurstScript(t *testing.T, script burstScript) {
	t.Helper()
	want, scheduled := runBurstScript(script, func(e *Engine) {
		for e.Step() {
		}
	})
	// The step loop is the reference for the batched drivers, and the
	// (at, scheduling order) order is the reference for the step loop:
	// ids are handed out in scheduling order and no delay is negative, so
	// a correct engine fires every id once, in strictly increasing
	// (at, id).
	if len(want) != scheduled {
		t.Fatalf("step loop: fired %d of %d scheduled events", len(want), scheduled)
	}
	seen := make([]bool, scheduled)
	for i, f := range want {
		if seen[f.id] {
			t.Fatalf("step loop: firing %d = %+v repeats an event", i, f)
		}
		seen[f.id] = true
		if i == 0 {
			continue
		}
		if p := want[i-1]; f.at < p.at || f.at == p.at && f.id < p.id {
			t.Fatalf("step loop: firing %d = %+v after %+v breaks (at, scheduling order)", i, f, p)
		}
	}
	for name, drive := range drainDrivers {
		got, _ := runBurstScript(script, drive)
		if len(got) != len(want) {
			t.Fatalf("%s: fired %d events, step loop fired %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: firing %d = %+v, step loop fired %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestBurstDrainMatchesStepOrder fuzzes randomized scripts through every
// batched driver.
func TestBurstDrainMatchesStepOrder(t *testing.T) {
	rng := NewRNG(1234, 99)
	for trial := 0; trial < 200; trial++ {
		script := make(burstScript, 4+rng.IntN(60))
		for i := range script {
			script[i] = byte(rng.IntN(256))
		}
		checkBurstScript(t, script)
	}
}

// checkCalendar verifies the two-tier invariant on a live engine: every
// pending event sits in the one structure its time assigns it, in the
// slot its time assigns it, the counters and occupancy bitmaps agree
// with the ring chains and far lists, and the far edge leads the cursor by at most farLead
// half-rings. It returns the first violation, or "".
func checkCalendar(e *Engine) string {
	edge := e.farBase << farShift
	if e.farBase > e.curB>>farShift+farLead {
		return fmt.Sprintf("far edge %d more than %d half-rings past cursor bucket %d", e.farBase, farLead, e.curB)
	}
	ring, far := 0, 0
	for slot, i := range e.head {
		if e.occ[slot>>6]>>(slot&63)&1 == 0 {
			continue // an empty slot's head is stale
		}
		if i == nilIdx {
			return fmt.Sprintf("ring slot %d: occupied, chain empty", slot)
		}
		for ; i != nilIdx; i = e.slab[i].nxt {
			ring++
			if b := e.slab[i].at >> bucketShift; b < e.curB || b >= edge || int(b)&bucketMask != slot {
				return fmt.Sprintf("ring slot %d holds bucket %d, outside [cursor %d, edge %d) or misfiled", slot, b, e.curB, edge)
			}
		}
	}
	blocks := 0
	for slot := range numFar {
		if e.farOcc[slot>>6]>>(slot&63)&1 == 0 {
			continue // an empty slot's list is stale
		}
		list, n, msg := farList(e, slot)
		if msg != "" {
			return msg
		}
		blocks += n
		if len(list) == 0 {
			return fmt.Sprintf("far slot %d: occupied, list empty", slot)
		}
		for _, i := range list {
			far++
			if f := e.slab[i].at >> farTimeShift; f < e.farBase || f >= e.farBase+numFar || int(f)&farMask != slot {
				return fmt.Sprintf("far slot %d holds far bucket %d, outside [edge %d, +%d) or misfiled", slot, f, e.farBase, numFar)
			}
		}
	}
	if ring != e.ringCount || far != e.farCount {
		return fmt.Sprintf("ring chains and far lists hold %d/%d, counters say %d/%d", ring, far, e.ringCount, e.farCount)
	}
	free := 0
	for b := e.farFree; b != nilIdx && free <= len(e.farBlk); b = e.farBlk[b].next {
		free++
	}
	if blocks+free != len(e.farBlk) {
		return fmt.Sprintf("far lists use %d blocks and %d are free, the block slab holds %d", blocks, free, len(e.farBlk))
	}
	for _, i := range e.overflow {
		if f := e.slab[i].at >> farTimeShift; f < e.farBase+numFar {
			return fmt.Sprintf("overflow list holds far bucket %d, inside the far horizon %d", f, e.farBase+numFar)
		}
	}
	return ""
}

// farList returns far slot's list, the number of blocks it spans, and
// a message when its blocks are malformed: a block that is not full
// before the tail, a tail that is not the last block, or a cycle.
func farList(e *Engine, slot int) ([]int32, int, string) {
	var list []int32
	n := 0
	for b := e.farHead[slot]; ; b = e.farBlk[b].next {
		if n++; n > len(e.farBlk) {
			return nil, n, fmt.Sprintf("far slot %d: block chain longer than the block slab", slot)
		}
		blk := &e.farBlk[b]
		list = append(list, blk.idx[:blk.n]...)
		if b == e.farTail[slot] {
			if blk.next != nilIdx {
				return nil, n, fmt.Sprintf("far slot %d: tail block %d links on to %d", slot, b, blk.next)
			}
			return list, n, ""
		}
		if blk.n != farBlockLen || blk.next == nilIdx {
			return nil, n, fmt.Sprintf("far slot %d: block %d holds %d of %d before the tail", slot, b, blk.n, farBlockLen)
		}
	}
}

// TestCalendarInvariants steps randomized scripts one event at a time
// and checks the two-tier invariant after every dispatch, plus the
// property the geometry exists for: whenever a burst has just been
// collected, the ring reaches at least half a ring (131 µs) past the
// burst's first bucket — a far bucket spills as the cursor enters the
// half-ring before it, not when the ring runs dry.
func TestCalendarInvariants(t *testing.T) {
	rng := NewRNG(4321, 18)
	for trial := 0; trial < 60; trial++ {
		script := make(burstScript, 4+rng.IntN(60))
		for i := range script {
			script[i] = byte(rng.IntN(256))
			if trial%2 == 0 {
				script[i] &^= 0x18 // every event spawns: long far-tier chains
			}
		}
		runBurstScript(script, func(e *Engine) {
			for step := 0; ; step++ {
				fresh := !e.draining
				if !e.ensureBurst() {
					break
				}
				if first := e.slab[e.batch[0]].at >> bucketShift; fresh && e.farBase<<farShift-first <= numBuckets/2 {
					t.Fatalf("trial %d step %d: ring horizon %d buckets past the burst's first, want more than %d",
						trial, step, e.farBase<<farShift-first, numBuckets/2)
				}
				e.Step()
				if msg := checkCalendar(e); msg != "" {
					t.Fatalf("trial %d step %d (t=%d): %s", trial, step, e.Now(), msg)
				}
			}
			if e.Pending() != 0 {
				t.Fatalf("trial %d: %d events pending after the step loop ended", trial, e.Pending())
			}
		})
	}
}

// TestOverflowPullBehindCursorRegression pins the geometry of a bug the
// single-tier engine had: its ring horizon moved with the cursor, so an
// event scheduled three buckets in could file in the ring at a bucket
// *past* one that, scheduled from t=0, had overflowed to the slow path —
// and the cursor advance jumped over the overflowed event, which was
// then pulled in behind the cursor and fired late (virtual time going
// backwards). The far edge does not move with the cursor inside a
// half-ring and filing is by time alone, so both events now wait behind
// the edge and spill together; this test holds the same schedule,
// scaled to the edge and the bucket width, against its return.
func TestOverflowPullBehindCursorRegression(t *testing.T) {
	const (
		bucket = Time(1) << bucketShift
		edge   = Time(numBuckets) << bucketShift // the far edge at t=0
	)
	e := NewEngine()
	r := newRecorder(e)
	r.at(0, 0)
	r.then[1] = func() { r.at(edge+2*bucket, 3) } // two buckets past the edge
	r.at(3*bucket, 1)
	r.at(edge+bucket+bucket/2, 2) // one and a half: scheduled first, fires first
	e.Run()
	want := []refFire{{0, 0}, {3 * bucket, 1}, {edge + bucket + bucket/2, 2}, {edge + 2*bucket, 3}}
	if !slices.Equal(r.fires, want) {
		t.Fatalf("fired %v, want %v", r.fires, want)
	}
}

// FuzzBurstDrainOrder is the native-fuzzing entry point for the same
// property: any byte string is a valid script, and every batched driver
// must match the Step() loop on it.
func FuzzBurstDrainOrder(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x07, 0xe0, 0x41, 0x99, 0x23, 0xff, 0x00, 0x81, 0x5a})
	f.Add([]byte("burst-boundary"))
	// Far-straddling: every byte spawns, and the pairs of delays drawn
	// sit either side of the far edge (one far bucket ± 1 ns), the far
	// horizon (last far chain / first overflow event) and 3x beyond it, with
	// short-delay siblings keeping bursts live while the tiers spill.
	f.Add([]byte{0x41, 0x42, 0x43, 0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x45, 0x21, 0x25, 0xa5, 0x07, 0x00})
	// TestEqualTimesKeepPushOrderAcrossTiers as a script: ids 37, 58,
	// 78, 83 and 87 all fire at 134,479,880 ns, filed through the
	// overflow list, a far chain, a ring chain, a splice and a zero-delay
	// (clamp-path) splice respectively.
	f.Add([]byte{0x4f, 0xe2, 0x03, 0xa1, 0x5f, 0x0c, 0x8a, 0x82, 0x42, 0x28, 0x65, 0xe2, 0x63, 0xa3, 0x89, 0xe5, 0x06, 0xe8, 0x74, 0x69, 0xfa, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		script := burstScript(data)
		checkBurstScript(t, script)
	})
}

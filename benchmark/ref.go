package main

import (
	"math"
	"time"
)

// The host-speed reference. The benchmark runs on a few virtual cores of
// a shared host whose speed drifts by 10-40% for minutes at a time (no
// steal time is reported; identical work simply takes longer), which is
// longer than a run, so no estimator inside a run can see through it.
// What can is a yardstick: a fixed piece of work that belongs to the
// benchmark, not to the program, run every refEvery between pieces of
// the workload. Each slice's host time is then expressed in reference
// seconds (the time the same slice would have taken had the host run
// the reference at refNominalOpsPerSec) and the host-time figures are
// kept beside the normalised ones in the result file. A change to the
// program cannot move the reference; a change to the host moves both.

// refNominalOpsPerSec is the reference rate that defines a reference
// second: what the reference host (2 vCPUs of a 2.1 GHz Xeon, Go 1.24)
// sustains when quiet, so that reference seconds read as seconds there.
const refNominalOpsPerSec = 10e6

// refOps is one call's worth of reference work: about 5 ms.
const refOps = 50_000

// refEvery is how much workload time may pass between two reference
// calls.
const refEvery = 50 * time.Millisecond

type refEvent struct {
	at uint64
	id uint32
}

// refState is the reference's working set: a binary heap of pending
// events and a table of per-entity state, sized like the simulator's hot
// set (a few hundred timers, tens of kilobytes of state).
type refState struct {
	heap  []refEvent
	table [4096]uint64
	x     uint64
	acc   float64
}

func newRefState() *refState {
	r := &refState{x: 0x9E3779B97F4A7C15}
	for i := uint32(0); i < 256; i++ {
		r.push(refEvent{at: r.next() >> 44, id: i})
	}
	return r
}

func (r *refState) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

func (r *refState) push(e refEvent) {
	r.heap = append(r.heap, e)
	for i := len(r.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if r.heap[p].at <= r.heap[i].at {
			break
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

func (r *refState) pop() refEvent {
	top := r.heap[0]
	n := len(r.heap) - 1
	r.heap[0] = r.heap[n]
	r.heap = r.heap[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && r.heap[l].at < r.heap[m].at {
			m = l
		}
		if l+1 < n && r.heap[l+1].at < r.heap[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		r.heap[m], r.heap[i] = r.heap[i], r.heap[m]
		i = m
	}
	return top
}

// work does n operations: pop the earliest event, draw an exponential
// delay, touch the entity's state, schedule the successor.
func (r *refState) work(n int) {
	for i := 0; i < n; i++ {
		e := r.pop()
		u := r.next()
		gap := -math.Log(float64(u>>11|1) / (1 << 53))
		r.acc += gap
		slot := (uint64(e.id)*2654435761 + u>>20) % uint64(len(r.table))
		r.table[slot] += e.at
		r.push(refEvent{at: e.at + 1 + uint64(gap*1024), id: e.id})
	}
}

// hostRef accumulates reference measurements for the slice being
// measured.
type hostRef struct {
	st       *refState
	lastCall time.Time
	wall     time.Duration // spent in the reference since the last take
	cpu      time.Duration
	ops      int64
}

func newHostRef() *hostRef { return &hostRef{st: newRefState()} }

// tick runs the reference if refEvery has passed since it last ran. The
// workloads call it at their natural boundaries (between simulation
// runs, between experiments).
func (h *hostRef) tick() {
	if h == nil || time.Since(h.lastCall) < refEvery {
		return
	}
	h.run()
}

// run does one reference call and accounts for it.
func (h *hostRef) run() {
	u0 := processUsage(false)
	h.st.work(refOps)
	u1 := processUsage(false)
	h.wall += u1.at.Sub(u0.at)
	h.cpu += u1.cpu - u0.cpu
	h.ops += refOps
	h.lastCall = u1.at
}

// timed runs f between two calls of the reference (f may tick it as it
// goes) and returns what f itself took, in reference seconds and in
// host seconds. Without a reference the two are the same.
func (h *hostRef) timed(f func() error) (refS, hostS float64, err error) {
	h.take()
	t0 := time.Now()
	if h != nil {
		h.run()
	}
	err = f()
	if h != nil {
		h.run()
	}
	total := time.Since(t0)
	refWall, _, refOps := h.take()
	s := sliceStat{wall: total - refWall, refWall: refWall, refOps: refOps}
	return s.wall.Seconds() * s.speed(), s.wall.Seconds(), err
}

// burst makes n calls in a row and returns what they took, leaving the
// account empty.
func (h *hostRef) burst(n int) (wall time.Duration, ops int64) {
	for i := 0; i < n; i++ {
		h.run()
	}
	wall, _, ops = h.take()
	return wall, ops
}

// take returns what the reference cost since the last take and starts
// a new account.
func (h *hostRef) take() (wall, cpu time.Duration, ops int64) {
	if h == nil {
		return 0, 0, 0
	}
	wall, cpu, ops = h.wall, h.cpu, h.ops
	h.wall, h.cpu, h.ops = 0, 0, 0
	return wall, cpu, ops
}

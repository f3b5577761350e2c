package dataplane

import "slices"

// FCFS is a server's worker pool in closed form (§4.2), which both
// backends' servers run on: the simulator's in virtual time, the
// emulator's in nanoseconds from a base time. Requests start in
// admission order, each when it is ready or when the slot that falls
// free first does, whichever is later, and hold that slot until they
// finish. The pool keeps when each slot falls free and, in admission
// order, the requests that had not started by the latest Admit's clock,
// each with its ready time, its start time and a token of the caller's.
// Both times are nondecreasing in admission order, so the requests
// waiting at any time are one contiguous run of them.
type FCFS[T any] struct {
	free  []int64      // when each slot falls free
	pend  []Pending[T] // pend[head:] are the requests kept
	head  int
	taken int // the slot the latest Admit took
}

// Pending is one admitted request.
type Pending[T any] struct {
	Ready, Start int64
	Token        T
}

// Init gives q the slots of free, each free from time 0, and no
// requests; the requests it admits first are kept in pend's capacity.
func (q *FCFS[T]) Init(free []int64, pend []Pending[T]) {
	clear(free)
	*q = FCFS[T]{free: free, pend: pend[:0]}
}

// Admit queues a request that is ready at ready behind every request
// admitted before it and returns when it starts: at ready, or when the
// slot that falls free first does, if that is later. Hold must follow
// with its finish. Ready times never run back, so any slot free by ready
// is as good as the first to fall free: the slots are tried from the one
// after the latest taken. Requests that started before now, the caller's
// clock, which never runs back either, are dropped.
func (q *FCFS[T]) Admit(now, ready int64, tok T) int64 {
	if n := len(q.pend); n > 0 && q.pend[n-1].Start < now {
		q.pend, q.head = q.pend[:0], 0 // all started: the common case
	}
	for q.head < len(q.pend) && q.pend[q.head].Start < now {
		q.head++
	}
	if 2*q.head > len(q.pend) {
		q.pend, q.head = q.pend[:copy(q.pend, q.pend[q.head:])], 0
	}
	i := 0
	for ; i < len(q.free); i++ {
		if q.taken++; q.taken == len(q.free) {
			q.taken = 0
		}
		if q.free[q.taken] <= ready {
			break
		}
	}
	if i == len(q.free) {
		q.taken = slices.Index(q.free, slices.Min(q.free))
	}
	start := max(ready, q.free[q.taken])
	q.pend = append(q.pend, Pending[T]{Ready: ready, Start: start, Token: tok})
	return start
}

// Hold keeps the slot the latest Admit took busy until finish.
func (q *FCFS[T]) Hold(finish int64) { q.free[q.taken] = finish }

// Waiting returns how many requests wait at t: ready at or before t,
// started after it.
func (q *FCFS[T]) Waiting(t int64) int {
	p := q.pend[q.head:]
	if len(p) == 0 || p[len(p)-1].Start <= t {
		return 0
	}
	lo, hi := 0, len(p)
	for lo < hi && p[lo].Start <= t {
		lo++
	}
	for hi > lo && p[hi-1].Ready > t {
		hi--
	}
	return hi - lo
}

// Reset empties q as a crash at t does: it hands each request that had
// not started by t (its start at t or later) to cancel, when cancel is
// not nil, in admission order, and every slot falls free at t.
func (q *FCFS[T]) Reset(t int64, cancel func(*Pending[T])) {
	for i := q.head; i < len(q.pend) && cancel != nil; i++ {
		if q.pend[i].Start >= t {
			cancel(&q.pend[i])
		}
	}
	clear(q.pend)
	q.pend, q.head = q.pend[:0], 0
	for i := range q.free {
		q.free[i] = t
	}
}

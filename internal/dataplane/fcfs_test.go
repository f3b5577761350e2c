package dataplane

import (
	"slices"
	"testing"
)

// TestFCFS pins the pool's closed form as a table: each admission's
// start, and the requests waiting at chosen times, over 1, 2 and 16
// slots, equal ready and finish times, and a reset after a crash.
func TestFCFS(t *testing.T) {
	type admit struct{ ready, svc, start int64 }
	type wait struct{ at, want int64 }
	cases := []struct {
		name    string
		slots   int
		admits  []admit
		waits   []wait // read after the admissions
		resetAt int64  // when > 0, reset then: admits2 follow
		cancels []int64
		admits2 []admit
		waits2  []wait
	}{
		{
			name:  "one slot serves back to back",
			slots: 1,
			admits: []admit{
				{ready: 0, svc: 10, start: 0},
				{ready: 2, svc: 5, start: 10},
				{ready: 2, svc: 5, start: 15},
				{ready: 30, svc: 1, start: 30},
			},
			waits: []wait{{0, 0}, {1, 0}, {2, 2}, {9, 2}, {10, 1}, {14, 1}, {15, 0}, {30, 0}},
		},
		{
			name:  "two slots, equal ready and finish times",
			slots: 2,
			admits: []admit{
				{ready: 0, svc: 10, start: 0},
				{ready: 0, svc: 10, start: 0},
				{ready: 5, svc: 10, start: 10},
				{ready: 10, svc: 10, start: 10},
				{ready: 10, svc: 3, start: 20},
				{ready: 10, svc: 1, start: 20},
				{ready: 21, svc: 1, start: 21},
			},
			// At 10 the two finishes have started the requests ready at 5
			// and 10; two wait for 20, when both slots fall free again.
			waits: []wait{{0, 0}, {5, 1}, {9, 1}, {10, 2}, {19, 2}, {20, 0}, {21, 0}},
		},
		{
			name:  "sixteen slots, then a queue",
			slots: 16,
			admits: func() []admit {
				var a []admit
				for range 16 {
					a = append(a, admit{ready: 0, svc: 100, start: 0})
				}
				return append(a, admit{0, 100, 100}, admit{0, 50, 100}, admit{0, 100, 100}, admit{0, 1, 100}, admit{1, 1, 100})
			}(),
			waits: []wait{{0, 4}, {1, 5}, {99, 5}, {100, 0}},
		},
		{
			name:  "a reset frees every slot and hands back what had not started",
			slots: 2,
			admits: []admit{
				{ready: 0, svc: 10, start: 0},
				{ready: 0, svc: 10, start: 0},
				{ready: 1, svc: 5, start: 10},
				{ready: 2, svc: 5, start: 10},
				{ready: 3, svc: 5, start: 15},
				{ready: 12, svc: 5, start: 15},
			},
			waits:   []wait{{3, 3}, {10, 1}, {12, 2}},
			resetAt: 10,
			cancels: []int64{1, 2, 3, 12},
			admits2: []admit{
				{ready: 11, svc: 5, start: 11},
				{ready: 11, svc: 5, start: 11},
				{ready: 11, svc: 5, start: 16},
			},
			waits2: []wait{{11, 1}, {16, 0}},
		},
	}
	// The clock stays at 0, so no request is dropped before a reset;
	// each token is its request's ready time.
	check := func(t *testing.T, q *FCFS[int64], admits []admit, waits []wait) {
		t.Helper()
		for i, a := range admits {
			if got := q.Admit(0, a.ready, a.ready); got != a.start {
				t.Errorf("admission %d, ready at %d: starts at %d, want %d", i, a.ready, got, a.start)
			}
			q.Hold(a.start + a.svc)
		}
		for _, w := range waits {
			if got := q.Waiting(w.at); int64(got) != w.want {
				t.Errorf("%d waiting at %d, want %d", got, w.at, w.want)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q FCFS[int64]
			q.Init(make([]int64, tc.slots), nil)
			check(t, &q, tc.admits, tc.waits)
			if tc.resetAt == 0 {
				return
			}
			var cancelled []int64
			q.Reset(tc.resetAt, func(p *Pending[int64]) { cancelled = append(cancelled, p.Token) })
			if !slices.Equal(cancelled, tc.cancels) {
				t.Errorf("reset at %d cancelled the requests ready at %v, want %v", tc.resetAt, cancelled, tc.cancels)
			}
			if got := q.Waiting(tc.resetAt); got != 0 {
				t.Errorf("%d waiting right after the reset, want 0", got)
			}
			check(t, &q, tc.admits2, tc.waits2)
		})
	}
}

// TestFCFSAllocatesNothing: once its list of requests has grown to the
// queue's high-water mark, the pool admits, holds and counts without
// allocating.
func TestFCFSAllocatesNothing(t *testing.T) {
	var q FCFS[struct{}]
	q.Init(make([]int64, 4), nil)
	now := int64(0)
	round := func() {
		for range 8 {
			q.Hold(q.Admit(now, now, struct{}{}) + 40)
			q.Waiting(now)
			now += 7
		}
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%v allocations per round, want 0", allocs)
	}
}

package simcluster

import (
	"testing"

	"netclone/internal/workload"
)

// pendOp is one step of a pending-table script: put a seq, or take one
// (which may or may not be outstanding).
type pendOp struct {
	take bool
	seq  uint32
}

// puts returns put steps for seqs first, first+1, ... (n of them,
// wrapping through uint32 like client.nextSeq does).
func puts(first uint32, n int) []pendOp {
	ops := make([]pendOp, n)
	for i := range ops {
		ops[i] = pendOp{seq: first + uint32(i)}
	}
	return ops
}

// takes returns take steps for the given seqs, in order.
func takes(seqs ...uint32) []pendOp {
	ops := make([]pendOp, len(seqs))
	for i, s := range seqs {
		ops[i] = pendOp{take: true, seq: s}
	}
	return ops
}

func script(parts ...[]pendOp) []pendOp {
	var ops []pendOp
	for _, p := range parts {
		ops = append(ops, p...)
	}
	return ops
}

// reqFor derives a distinguishable payload from a seq, so a take that
// returned some other seq's request is caught.
func reqFor(seq uint32) pendingReq {
	return pendingReq{sentAt: int64(seq)*7 + 3, op: workload.OpKind(seq % 3)}
}

// TestPendingTableMatchesMap drives the ring + growth + spill table
// against a plain map at every initial ring size: whatever the size,
// the growth steps taken, or the spill, it must answer every take
// exactly as the map does and finish holding the same set.
func TestPendingTableMatchesMap(t *testing.T) {
	wrap := ^uint32(0) - 5 // six puts before the uint32 seq wraps
	cases := []struct {
		name     string
		ops      []pendOp
		wantRing map[int]int // initial ring size -> final ring size (0: unchecked)
		spills   bool        // the pendRingMax ring must have spilled
	}{
		{
			name: "in-order completion never grows",
			ops: func() []pendOp {
				var ops []pendOp
				for s := uint32(0); s < 300; s++ {
					ops = append(ops, pendOp{seq: s}, pendOp{take: true, seq: s})
				}
				return ops
			}(),
			wantRing: map[int]int{4: 4, 8: 8, 64: 64},
		},
		{
			name: "out-of-order completion inside the window",
			ops: script(puts(0, 4), takes(2, 0, 3, 1, 1, 9),
				puts(4, 4), takes(7, 6, 5, 4)),
			wantRing: map[int]int{4: 4, 64: 64},
		},
		{
			// seq 0 never completes; later seqs complete promptly. Each
			// time the ring laps seq 0 it doubles: at seq 4, 8, 16, 32,
			// and at seq 64 (ring 64) it spills instead.
			name: "never-completed seq lapped at each growth step",
			ops: func() []pendOp {
				ops := puts(0, 1)
				for s := uint32(1); s <= 130; s++ {
					ops = append(ops, pendOp{seq: s}, pendOp{take: true, seq: s})
				}
				return append(ops, takes(0, 0)...)
			}(),
			wantRing: map[int]int{4: 64, 16: 64, 64: 64},
			spills:   true,
		},
		{
			name: "lost seqs at several residues, completed late",
			ops: script(puts(0, 3), // 0,1,2 stay outstanding
				func() []pendOp {
					var ops []pendOp
					for s := uint32(3); s < 40; s++ {
						ops = append(ops, pendOp{seq: s}, pendOp{take: true, seq: s})
					}
					return ops
				}(),
				takes(1, 0, 2, 2)),
			wantRing: map[int]int{4: 64, 32: 64},
		},
		{
			name: "more than 64 in flight spills and drains",
			ops: script(puts(0, 200),
				func() []pendOp {
					var seqs []uint32
					for s := uint32(0); s < 200; s += 2 {
						seqs = append(seqs, s)
					}
					for s := uint32(199); s < 200; s -= 2 {
						seqs = append(seqs, s)
					}
					return takes(seqs...)
				}(),
				takes(0, 199, 77)),
			wantRing: map[int]int{4: 64, 64: 64},
			spills:   true,
		},
		{
			name: "uint32 seq wrap",
			ops: script(puts(wrap, 12), takes(wrap+7, wrap, 1, wrap+11, 0),
				puts(wrap+12, 70), takes(wrap+1, wrap+2, wrap+80, 5)),
			spills: true,
		},
	}
	for _, tc := range cases {
		for size := pendRingMin; size <= pendRingMax; size *= 2 {
			c := &client{pendRing: make([]pendSlot, size)}
			ref := map[uint32]pendingReq{}
			for i, op := range tc.ops {
				if !op.take {
					c.putPending(op.seq, reqFor(op.seq))
					ref[op.seq] = reqFor(op.seq)
					continue
				}
				got, ok := c.takePending(op.seq)
				want, wantOK := ref[op.seq]
				delete(ref, op.seq)
				if ok != wantOK || got != want {
					t.Fatalf("%s, ring %d, step %d: take(%d) = (%+v, %v), map says (%+v, %v)",
						tc.name, size, i, op.seq, got, ok, want, wantOK)
				}
			}
			// Same final contents: drain the reference through the table.
			for seq, want := range ref {
				if got, ok := c.takePending(seq); !ok || got != want {
					t.Fatalf("%s, ring %d: seq %d outstanding in the map, table says (%+v, %v)",
						tc.name, size, seq, got, ok)
				}
			}
			for _, s := range c.pendRing {
				if s.valid {
					t.Fatalf("%s, ring %d: seq %d left in the ring after the map drained", tc.name, size, s.seq)
				}
			}
			if len(c.pendSpill) != 0 {
				t.Fatalf("%s, ring %d: %d entries left in the spill map", tc.name, size, len(c.pendSpill))
			}
			if want := tc.wantRing[size]; want != 0 && len(c.pendRing) != want {
				t.Errorf("%s: ring started at %d and ended at %d, want %d", tc.name, size, len(c.pendRing), want)
			}
			if len(c.pendRing) > pendRingMax {
				t.Errorf("%s: ring grew to %d, past pendRingMax", tc.name, len(c.pendRing))
			}
			if size == pendRingMax && tc.spills != (c.pendSpill != nil) {
				t.Errorf("%s: spilled = %v at ring %d, want %v", tc.name, c.pendSpill != nil, size, tc.spills)
			}
		}
	}
}

// TestPendRingSizeFor pins the sizing rule: the few-client scenarios
// (hundreds of thousands of requests per second per client) keep the
// full ring, a 1e5-client fabric gets the minimum, and sizes in between
// are powers of two covering one horizon of sends.
func TestPendRingSizeFor(t *testing.T) {
	for _, tc := range []struct {
		rps  float64
		want int
	}{
		{0, pendRingMin},
		{180, pendRingMin},  // scale-racks-xl: 18.4 MRPS over 102,400 clients
		{4000, pendRingMin}, // exactly the minimum ring per horizon
		{4001, 8},
		{20e3, 32},
		{64e3, 64},
		{375e3, pendRingMax}, // 8-client fabric probe
		{500e3, pendRingMax}, // hot path: 1 MRPS over 2 clients
		{1e12, pendRingMax},
	} {
		if got := pendRingSizeFor(tc.rps); got != tc.want {
			t.Errorf("pendRingSizeFor(%g) = %d, want %d", tc.rps, got, tc.want)
		}
	}
}

// Package dataplane implements the NetClone switch data plane — the
// paper's primary contribution (§3) — as a deterministic, testable state
// machine.
//
// The package models a PISA-style programmable switch ASIC (Tofino):
// packets traverse a fixed sequence of match-action stages; every table
// and register array is statically pinned to one stage at "compile" time;
// and a packet may access each stateful object at most once per pass. The
// shadow state table, the recirculation of clones, and the hash-indexed
// filter tables all exist *because* of these constraints (§3.4–3.5), so
// the model enforces them: violating code panics, exactly as a P4 program
// violating them would fail to compile.
//
// The Switch type is not safe for concurrent use; callers that share a
// Switch across goroutines (e.g. the UDP emulator) must serialize access,
// mirroring the ASIC's one-packet-per-stage-per-cycle discipline.
package dataplane

import (
	"fmt"
	"sync"
)

// pass tracks one packet's traversal through the pipeline. Stages must be
// visited in non-decreasing order and each stateful object at most once.
type pass struct {
	id    uint64
	stage int
}

// object is the common bookkeeping for stage-pinned stateful objects.
type object struct {
	name     string
	stage    int
	lastPass uint64 // pass id of the most recent access
}

// touch asserts the PISA constraints for an access by p and records it.
func (o *object) touch(p *pass) {
	if p.id == o.lastPass {
		panic(fmt.Sprintf("dataplane: %s accessed twice in one pass (PISA allows one access per stage object)", o.name))
	}
	if o.stage < p.stage {
		panic(fmt.Sprintf("dataplane: %s is in stage %d but packet already reached stage %d (stages are traversed once, in order)", o.name, o.stage, p.stage))
	}
	o.lastPass = p.id
	p.stage = o.stage
}

// regArray is a register array: per-slot 32-bit state updated at line rate
// by the data plane (Tofino RegisterAction). One read-modify-write per
// packet per array.
type regArray struct {
	object
	vals []uint32
}

// Backing-array recycling. A default-sized filter table is half a
// megabyte of zeroed uint32s; a simulation campaign builds one switch
// per cluster per point, and that build garbage — not the steady-state
// hot path — was the dominant allocation source in the tracked
// hot-path benchmark. Large backings cycle through a pool; small
// arrays are not worth the bookkeeping.
//
// Pool invariant: every array handed to putVals is fully zeroed.
// Switch.Recycle guarantees this by undoing only the slots its dirty
// lists recorded, so a reused half-megabyte array costs a few hundred
// word stores instead of a full memclr.
const poolMinSlots = 4096

var valsPool sync.Pool // of *[]uint32 with len == cap >= poolMinSlots

func getVals(slots int) []uint32 {
	if slots >= poolMinSlots {
		if v, ok := valsPool.Get().(*[]uint32); ok {
			if s := *v; cap(s) >= slots {
				return s[:slots]
			}
		}
	}
	return make([]uint32, slots)
}

// putVals returns v to the pool. v must be fully zeroed (see the pool
// invariant above).
func putVals(v []uint32) {
	if cap(v) >= poolMinSlots {
		v = v[:cap(v)]
		valsPool.Put(&v)
	}
}

func newRegArray(name string, stage, slots int) *regArray {
	return &regArray{object: object{name: name, stage: stage}, vals: getVals(slots)}
}

// access performs the array's single allowed operation for this pass: a
// read-modify-write of slot idx through fn. fn receives the current value
// and returns the new value; access returns the old value.
func (r *regArray) access(p *pass, idx int, fn func(old uint32) uint32) uint32 {
	r.touch(p)
	old := r.vals[idx]
	r.vals[idx] = fn(old)
	return old
}

// slot performs the array's single allowed access for this pass and
// returns the slot for an immediate read-modify-write by the caller.
// Semantically identical to access with the same update applied; it
// exists because the forwarding pipeline cannot afford an indirect
// call per register operation.
func (r *regArray) slot(p *pass, idx int) *uint32 {
	r.touch(p)
	return &r.vals[idx]
}

// read is a read-only register access (still consumes the pass budget).
func (r *regArray) read(p *pass, idx int) uint32 {
	return r.access(p, idx, func(old uint32) uint32 { return old })
}

// reset zeroes the array. Models power-cycle soft-state loss (§3.6) and
// is a control-plane operation, not a data-plane access.
func (r *regArray) reset() {
	for i := range r.vals {
		r.vals[i] = 0
	}
}

// matchTable is an exact-match match-action table. Entries are installed
// by the control plane; the data plane only reads them (one lookup per
// pass).
type matchTable[V any] struct {
	object
	entries []V
	valid   []bool
	writes  int64 // control-plane installs and removes since construction
}

func newMatchTable[V any](name string, stage, capacity int) *matchTable[V] {
	return &matchTable[V]{
		object:  object{name: name, stage: stage},
		entries: make([]V, capacity),
		valid:   make([]bool, capacity),
	}
}

// lookup reads the entry for key, if installed.
func (t *matchTable[V]) lookup(p *pass, key int) (V, bool) {
	t.touch(p)
	var zero V
	if key < 0 || key >= len(t.entries) || !t.valid[key] {
		return zero, false
	}
	return t.entries[key], true
}

// has reports whether key is installed (a control-plane read).
func (t *matchTable[V]) has(key int) bool {
	return key >= 0 && key < len(t.valid) && t.valid[key]
}

// install writes an entry from the control plane (no pass needed; control
// plane updates are out-of-band and slow, §3.8).
func (t *matchTable[V]) install(key int, v V) {
	if key < 0 || key >= len(t.entries) {
		panic(fmt.Sprintf("dataplane: %s install out of range: %d", t.name, key))
	}
	t.entries[key] = v
	t.valid[key] = true
	t.writes++
}

// remove deletes an entry from the control plane.
func (t *matchTable[V]) remove(key int) {
	if key < 0 || key >= len(t.entries) {
		return
	}
	var zero V
	t.entries[key] = zero
	t.valid[key] = false
	t.writes++
}

// size returns the table capacity.
func (t *matchTable[V]) size() int { return len(t.entries) }

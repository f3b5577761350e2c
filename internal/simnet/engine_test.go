package simnet

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %d, want 150", fired)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.At(100, func() {
		e.At(10, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
	e2 := NewEngine()
	e2.At(5, func() {})
	e2.Run()
	e2.After(-10, func() {})
	e2.Run()
	if e2.Now() != 5 {
		t.Fatalf("negative After moved clock to %d", e2.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, func() { ran[at] = true })
	}
	e.RunUntil(20)
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("RunUntil(20) ran wrong set: %v", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
	// Deadline past all events advances the clock to the deadline.
	e.RunUntil(99)
	if e.Now() != 99 || e.Pending() != 0 {
		t.Fatalf("Now=%d Pending=%d, want 99/0", e.Now(), e.Pending())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next must run fully.
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	e.Run()
	if count != 1000 {
		t.Fatalf("chain ran %d times, want 1000", count)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}

func TestOrderProperty(t *testing.T) {
	// Property: for any set of times, execution order is a stable sort.
	f := func(times []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, at := range times {
			i, at := i, Time(at)
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false // stability violated
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(1, 0)
	b := NewRNG(1, 1)
	same := true
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("distinct streams produced identical sequences")
	}
	// Same (seed, stream) reproduces exactly.
	c := NewRNG(1, 0)
	d := NewRNG(1, 0)
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("same seed/stream diverged")
		}
	}
}

// TestPastSchedulingFIFOAfterQueued pins the clamping contract from the
// At doc: an event scheduled in the past (or at t == now) runs at the
// current time, AFTER every event already queued for that time — the
// global seq counter, not the requested time, breaks the tie.
func TestPastSchedulingFIFOAfterQueued(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(100, func() {
		// Queue three more events at the current time...
		for i := 1; i <= 3; i++ {
			i := i
			e.At(100, func() { got = append(got, i) })
		}
		// ...then schedule into the past: it must clamp to now and run
		// after the same-time events queued above.
		e.At(10, func() { got = append(got, 99) })
	})
	e.Run()
	want := []int{1, 2, 3, 99}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("past-clamped event broke FIFO: got %v, want %v", got, want)
		}
	}
}

// TestSeqOverflowPreservesFIFO drives the sequence counter to its
// wraparound point and checks that the renumbering path keeps pending
// events in FIFO order instead of minting tie-breakers below them.
func TestSeqOverflowPreservesFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		e.At(50, func() { got = append(got, i) })
	}
	// Force the next schedule to hit the overflow guard.
	e.seq = ^uint64(0)
	e.At(50, func() { got = append(got, 4) })
	if e.seq == 0 || e.seq == ^uint64(0) {
		t.Fatalf("seq counter not renumbered: %d", e.seq)
	}
	e.At(50, func() { got = append(got, 5) })
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated across seq renumbering: %v", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("ran %d events, want 6", len(got))
	}
}

// TestEngineReset leaves events in every tier — ring, far chains, heap —
// and requires Reset to drop them all: engines are pooled
// (simcluster/pool.go), so a chain surviving Reset would replay a
// previous run's events into the next.
func TestEngineReset(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.At(20, func() {})
	e.Run()
	stale := func() { t.Errorf("event of the previous run fired at %d after Reset", e.Now()) }
	e.At(30, stale)               // ring
	e.At(5*farSpan, stale)        // far tier
	e.At(farHorizon/2, stale)     // far tier, high slot
	e.At(3*farHorizon, stale)     // heap
	e.At(math.MaxInt64>>1, stale) // heap
	if e.ringCount != 1 || e.farCount != 2 || len(e.overflow) != 2 || e.Pending() != 5 {
		t.Fatalf("setup: ring=%d far=%d heap=%d pending=%d, want 1/2/2 and 5",
			e.ringCount, e.farCount, len(e.overflow), e.Pending())
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Steps() != 0 {
		t.Fatalf("Reset left now=%d pending=%d steps=%d", e.Now(), e.Pending(), e.Steps())
	}
	if msg := checkCalendar(e); msg != "" {
		t.Fatalf("Reset left the calendar inconsistent: %s", msg)
	}
	e.Run()
	if e.Steps() != 0 || e.Now() != 0 {
		t.Fatalf("Run after Reset dispatched %d events, clock at %d", e.Steps(), e.Now())
	}
	// The far edge is back at the origin: a short delay files into the
	// ring and a long one behind it, as on a fresh engine.
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.At(5, rec)
	if e.seq != 1 {
		t.Fatalf("first schedule after Reset got seq %d, want 1", e.seq)
	}
	e.At(5*farSpan+1, rec)
	if e.ringCount != 1 || e.farCount != 1 {
		t.Fatalf("reused engine filed ring=%d far=%d, want 1/1", e.ringCount, e.farCount)
	}
	e.Run()
	if !slices.Equal(fired, []Time{5, 5*farSpan + 1}) {
		t.Fatalf("reused engine fired %v, want [5 %d]", fired, 5*farSpan+1)
	}
}

// TestFarTierHoldsArrivalsInOrder is the 1e5-client arrival pattern in
// miniature: 1e5 typed events at Exp(5.5 ms) gaps, all within 100 ms —
// inside the far horizon, so none may touch the heap — fired in exactly
// the order of a sorted (at, seq) reference.
func TestFarTierHoldsArrivalsInOrder(t *testing.T) {
	const (
		total  = 100_000
		meanNS = 5.5e6
		endNS  = 100e6
	)
	e := NewEngine()
	rng := NewRNG(7, 18)
	var want, got []refFire // ids count schedules, so (at, id) is (at, seq)
	var hid int32
	arrive := func(from Time) {
		at := from + Time(rng.ExpFloat64()*meanNS)
		if len(want) == total || at > endNS {
			return
		}
		want = append(want, refFire{at, len(want)})
		e.Schedule(at, hid, 0, nil, int64(len(want)-1))
	}
	hid = e.Register(handlerFunc(func(_ uint8, _ any, x int64) {
		if len(e.overflow) != 0 {
			t.Fatalf("t=%d: %d events in the heap, want the far tier to hold them all", e.Now(), len(e.overflow))
		}
		got = append(got, refFire{e.Now(), int(x)})
		arrive(e.Now())
		arrive(e.Now())
	}))
	for range 10_000 {
		arrive(0)
	}
	if e.farCount < 9_000 {
		t.Fatalf("only %d of 10000 initial arrivals filed in the far tier", e.farCount)
	}
	e.Run()
	if len(want) != total || len(got) != total {
		t.Fatalf("scheduled %d and fired %d events, want %d", len(want), len(got), total)
	}
	slices.SortFunc(want, func(a, b refFire) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, sorted (at, seq) reference has %+v", i, got[i], want[i])
		}
	}
}

// TestTelemetryOverflowCountsBeyondRing pins the gauge's meaning:
// Overflow is everything pending beyond the ring — far tier plus heap —
// and Pending includes it.
func TestTelemetryOverflowCountsBeyondRing(t *testing.T) {
	e := NewEngine()
	tel := NewTelemetry(1, 4)
	e.SetTelemetry(tel)
	for _, at := range []Time{10, 20, 4 * farSpan, 9 * farSpan, 2 * farHorizon} {
		e.At(at, func() {})
	}
	e.RunUntil(10)
	if len(tel.Samples) != 1 {
		t.Fatalf("took %d samples, want 1", len(tel.Samples))
	}
	if s := tel.Samples[0]; s.Pending != 5 || s.Overflow != 3 {
		t.Fatalf("sample %+v, want Pending 5 (all tiers) and Overflow 3 (2 far + 1 heap)", s)
	}
}

// refEngine is the pre-typed-event reference semantics: a stable sort
// over (clamped time, scheduling order), executed one event at a time —
// exactly what the container/heap + closure engine guaranteed.
type refEngine struct {
	now  Time
	seq  uint64
	evs  []refEvent
	trac *[]refFire
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refFire struct {
	at Time
	id int
}

func (r *refEngine) at(t Time, id int) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evs = append(r.evs, refEvent{at: t, seq: r.seq, id: id})
}

func (r *refEngine) step() (refEvent, bool) {
	if len(r.evs) == 0 {
		return refEvent{}, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		e, b := r.evs[i], r.evs[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = ev.at
	return ev, true
}

// scriptHandler records typed-event firings for the equivalence test.
type scriptHandler struct {
	e     *Engine
	hid   int32
	fires *[]refFire
	// pending holds ids of follow-up events each fired event schedules.
	follow map[int][]scriptOp
}

type scriptOp struct {
	delay int64
	id    int
}

func (h *scriptHandler) OnEvent(kind uint8, arg any, x int64) {
	*h.fires = append(*h.fires, refFire{at: h.e.Now(), id: int(x)})
	for _, op := range h.follow[int(x)] {
		h.e.ScheduleAfter(op.delay, h.hid, 0, nil, int64(op.id))
	}
}

// TestEngineTypedVsClosureEquivalence runs the same randomized schedule
// script three ways — reference model, closure API, typed API — and
// requires the identical firing sequence (time and identity) from each.
// Scripts include past/present scheduling, heavy ties, and events that
// schedule follow-up events (cascades).
func TestEngineTypedVsClosureEquivalence(t *testing.T) {
	rng := NewRNG(42, 7)
	for trial := 0; trial < 50; trial++ {
		// Random script: initial events plus follow-ups some events spawn.
		n := 5 + rng.IntN(40)
		initial := make([]scriptOp, n)
		follow := map[int][]scriptOp{}
		id := 0
		for i := range initial {
			initial[i] = scriptOp{delay: int64(rng.IntN(100)), id: id}
			id++
		}
		for i := 0; i < n; i++ {
			if rng.IntN(3) == 0 {
				k := 1 + rng.IntN(3)
				for j := 0; j < k; j++ {
					// Delay may be negative: schedules into the past,
					// exercising the clamp + FIFO rule.
					follow[i] = append(follow[i], scriptOp{delay: int64(rng.IntN(40)) - 10, id: id})
					id++
				}
			}
		}

		// Reference model.
		ref := &refEngine{}
		var refFires []refFire
		for _, op := range initial {
			ref.at(op.delay, op.id)
		}
		for {
			ev, ok := ref.step()
			if !ok {
				break
			}
			refFires = append(refFires, refFire{at: ref.now, id: ev.id})
			for _, op := range follow[ev.id] {
				d := op.delay
				if d < 0 {
					d = 0
				}
				ref.at(ref.now+d, op.id)
			}
		}

		// Closure API.
		ce := NewEngine()
		var closureFires []refFire
		var fire func(id int)
		fire = func(id int) {
			closureFires = append(closureFires, refFire{at: ce.Now(), id: id})
			for _, op := range follow[id] {
				op := op
				ce.After(op.delay, func() { fire(op.id) })
			}
		}
		for _, op := range initial {
			op := op
			ce.At(op.delay, func() { fire(op.id) })
		}
		ce.Run()

		// Typed API.
		te := NewEngine()
		var typedFires []refFire
		h := &scriptHandler{e: te, fires: &typedFires, follow: follow}
		h.hid = te.Register(h)
		for _, op := range initial {
			te.Schedule(op.delay, h.hid, 0, nil, int64(op.id))
		}
		te.Run()

		for name, got := range map[string][]refFire{"closure": closureFires, "typed": typedFires} {
			if len(got) != len(refFires) {
				t.Fatalf("trial %d: %s engine ran %d events, reference ran %d", trial, name, len(got), len(refFires))
			}
			for i := range refFires {
				if got[i] != refFires[i] {
					t.Fatalf("trial %d: %s engine diverged at event %d: got %+v, want %+v",
						trial, name, i, got[i], refFires[i])
				}
			}
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
}

// TestZeroValueEngine pins the documented contract that the zero value
// is ready to use at time 0: alloc lazily initializes storage before
// touching the free list, so scheduling on a `var e Engine` (whose
// freeHead and head[] zero values are 0, not nilIdx) must not index a
// nil slab or misread an empty chain.
func TestZeroValueEngine(t *testing.T) {
	var e Engine
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	// A far-tier delay first: the far chains' heads need the same lazy
	// nilIdx initialization as the ring's, and the far edge its anchor.
	e.At(3*farSpan+7, rec)
	e.At(30, rec)
	e.At(10, func() {
		rec()
		e.After(5, rec)
	})
	if e.ringCount != 2 || e.farCount != 1 {
		t.Fatalf("zero-value engine filed ring=%d far=%d, want 2/1", e.ringCount, e.farCount)
	}
	if i := e.farHead[3]; e.slab[i].at != 3*farSpan+7 || e.slab[i].nxt != nilIdx {
		t.Fatalf("zero-value engine: far chain 3 is not the one event scheduled into it")
	}
	e.Run()
	want := []Time{10, 15, 30, 3*farSpan + 7}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// BenchmarkEngineFarFuture is the hold model of a 1e5-client point
// (scale-racks-xl): 1e5 pending typed events, each rescheduling itself
// Exp(5.5 ms) ahead — forty ring horizons out, so every schedule files
// beyond the ring and every dispatch was filed there once. One op is one
// event. Gaps come from a precomputed table so the figure is the
// engine's, not the sampler's.
func BenchmarkEngineFarFuture(b *testing.B) {
	const pending = 100_000
	rng := NewRNG(1, 1)
	var gaps [1 << 12]int64
	for i := range gaps {
		gaps[i] = int64(rng.ExpFloat64() * 5.5e6)
	}
	e := NewEngine()
	n := 0
	var hid int32
	hid = e.Register(handlerFunc(func(_ uint8, _ any, x int64) {
		n++
		e.ScheduleAfter(gaps[n&(len(gaps)-1)], hid, 0, nil, x)
	}))
	for i := range pending {
		e.ScheduleAfter(gaps[i&(len(gaps)-1)], hid, 0, nil, int64(i))
	}
	// Warm up past the initial transient: one mean gap of virtual time.
	e.RunUntil(5_500_000)
	b.ReportAllocs()
	b.ResetTimer()
	for n = 0; n < b.N; {
		e.DrainBatch(math.MaxInt64)
	}
}

// nopHandler is a typed-event sink for benchmarks.
type nopHandler struct{}

func (nopHandler) OnEvent(uint8, any, int64) {}

type handlerFunc func(kind uint8, arg any, x int64)

func (f handlerFunc) OnEvent(kind uint8, arg any, x int64) { f(kind, arg, x) }

// BenchmarkEngineTypedScheduleAndRun is the typed-event counterpart of
// BenchmarkEngineScheduleAndRun: the hot-path scheduling mode used by
// the cluster simulation. Steady state is allocation-free (the heap
// grows once, then is reused).
func BenchmarkEngineTypedScheduleAndRun(b *testing.B) {
	e := NewEngine()
	hid := e.Register(nopHandler{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i), hid, 0, nil, int64(i))
	}
	e.Run()
}

// BenchmarkEngineTypedSteadyState measures the recycled-engine cycle:
// schedule a batch, drain it, Reset — the per-event cost with a warm
// heap and zero allocations.
func BenchmarkEngineTypedSteadyState(b *testing.B) {
	e := NewEngine()
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		hid := e.Register(nopHandler{}) // Reset drops registrations
		for j := 0; j < batch; j++ {
			e.Schedule(Time(j), hid, 0, nil, int64(j))
		}
		e.Run()
		e.Reset()
	}
}

package simnet

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// recorder is the typed test handler: it logs every firing as (now, x)
// and then runs the hook registered for x, if any, so a test can
// schedule from inside a handler the way the cluster's nodes do.
type recorder struct {
	e     *Engine
	hid   int32
	fires []refFire
	then  map[int]func()
}

func newRecorder(e *Engine) *recorder {
	r := &recorder{e: e, then: map[int]func(){}}
	r.hid = e.Register(r)
	return r
}

func (r *recorder) OnEvent(_ uint8, _ any, x int64) {
	r.fires = append(r.fires, refFire{r.e.Now(), int(x)})
	if f := r.then[int(x)]; f != nil {
		f()
	}
}

// at schedules event id at absolute time t; after, d from now.
func (r *recorder) at(t Time, id int)     { r.e.Schedule(t, r.hid, 0, nil, int64(id)) }
func (r *recorder) after(d int64, id int) { r.e.ScheduleAfter(d, r.hid, 0, nil, int64(id)) }

// ids returns the recorded firing identities in firing order.
func (r *recorder) ids() []int {
	out := make([]int, len(r.fires))
	for k, f := range r.fires {
		out[k] = f.id
	}
	return out
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	for i, at := range []Time{50, 10, 30, 20, 40} {
		r.at(at, i)
	}
	e.Run()
	if !slices.Equal(r.ids(), []int{1, 3, 2, 4, 0}) {
		t.Fatalf("events out of order: %v", r.fires)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	for i := 0; i < 10; i++ {
		r.at(100, i)
	}
	e.Run()
	if !slices.Equal(r.ids(), []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("same-time events not FIFO: %v", r.ids())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	r.at(100, 0)
	r.then[0] = func() { r.after(50, 1) }
	e.Run()
	if len(r.fires) != 2 || r.fires[1].at != 150 {
		t.Fatalf("fired %v, want the follow-up at 150", r.fires)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	r.at(100, 0)
	r.then[0] = func() { r.at(10, 1) } // in the past
	e.Run()
	if len(r.fires) != 2 || r.fires[1].at != 100 {
		t.Fatalf("fired %v, want the past event clamped to 100", r.fires)
	}
	e2 := NewEngine()
	r2 := newRecorder(e2)
	r2.at(5, 0)
	e2.Run()
	r2.after(-10, 1)
	e2.Run()
	if e2.Now() != 5 {
		t.Fatalf("negative delay moved clock to %d", e2.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	for _, at := range []Time{10, 20, 30} {
		r.at(at, int(at))
	}
	e.RunUntil(20)
	if !slices.Equal(r.ids(), []int{10, 20}) {
		t.Fatalf("RunUntil(20) ran %v, want [10 20]", r.ids())
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
	r := newRecorder(e)
	r.then[0] = func() {
		if len(r.fires) < 1000 {
			r.after(1, 0)
		}
	}
	r.at(0, 0)
	e.Run()
	if len(r.fires) != 1000 {
		t.Fatalf("chain ran %d times, want 1000", len(r.fires))
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}

func TestOrderProperty(t *testing.T) {
	// Property: for any set of times, execution order is a stable sort.
	f := func(times []uint16) bool {
		e := NewEngine()
		r := newRecorder(e)
		for i, at := range times {
			r.at(Time(at), i)
		}
		e.Run()
		got := r.fires
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].id < got[i-1].id {
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
// Schedule doc: an event scheduled in the past (or at t == now) runs at
// the current time, AFTER every event already queued for that time —
// scheduling order, not the requested time, breaks the tie.
func TestPastSchedulingFIFOAfterQueued(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	r.then[0] = func() {
		// Queue three more events at the current time...
		for i := 1; i <= 3; i++ {
			r.at(100, i)
		}
		// ...then schedule into the past: it must clamp to now and run
		// after the same-time events queued above.
		r.at(10, 99)
	}
	r.at(100, 0)
	e.Run()
	if want := []int{0, 1, 2, 3, 99}; !slices.Equal(r.ids(), want) {
		t.Fatalf("past-clamped event broke FIFO: got %v, want %v", r.ids(), want)
	}
}

// TestEqualTimesKeepPushOrderAcrossTiers reaches one timestamp five
// ways — overflow → far → ring, a direct far push, a direct ring push,
// a splice into the live burst, and a clamped past-time schedule — and
// requires the events to fire in the order they were scheduled. Each
// move between structures must keep scheduling order, since no event
// carries a tie-breaker of its own.
func TestEqualTimesKeepPushOrderAcrossTiers(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	// T lies beyond the far horizon at t=0, within it when event 100
	// fires at farHorizon/2, and below the far edge when event 101 fires
	// half a far bucket before it. Event 102 opens T's burst at T-1 (same
	// bucket), where the splice and the clamps happen.
	const T = farHorizon + 10*farSpan + 5
	r.at(T, 0) // overflow, then far tier, then ring
	r.at(T, 1)
	r.then[100] = func() { r.at(T, 2) }
	r.at(farHorizon/2, 100) // far push
	r.then[101] = func() { r.at(T, 3) }
	r.at(T-farSpan/2, 101) // ring push
	r.then[102] = func() {
		r.at(T, 4)     // splice
		r.at(T-100, 5) // clamped to T-1: spliced before T
		r.at(T-100, 6)
	}
	r.at(T-1, 102)
	r.then[4] = func() { r.at(0, 7) } // clamped to T, after 0..4
	if len(e.overflow) != 4 || (T-1)>>bucketShift != T>>bucketShift {
		t.Fatalf("setup: %d events in the overflow list, want 4, and T-1 in T's bucket", len(e.overflow))
	}
	e.Run()
	want := []refFire{
		{farHorizon / 2, 100}, {T - farSpan/2, 101}, {T - 1, 102}, {T - 1, 5}, {T - 1, 6},
		{T, 0}, {T, 1}, {T, 2}, {T, 3}, {T, 4}, {T, 7},
	}
	if !slices.Equal(r.fires, want) {
		t.Fatalf("fired %v, want %v", r.fires, want)
	}
}

// TestEngineReset leaves events in every tier — ring, far lists,
// overflow — and requires Reset to drop them all: engines are pooled
// (simcluster/pool.go), so a chain or list surviving Reset would replay
// a previous run's events into the next.
func TestEngineReset(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	r.at(10, 0)
	r.at(20, 0)
	e.Run()
	r.at(30, 1)               // ring
	r.at(5*farSpan, 1)        // far tier
	r.at(farHorizon/2, 1)     // far tier, high slot
	r.at(3*farHorizon, 1)     // overflow
	r.at(math.MaxInt64>>1, 1) // overflow
	if e.ringCount != 1 || e.farCount != 2 || len(e.overflow) != 2 || e.Pending() != 5 {
		t.Fatalf("setup: ring=%d far=%d overflow=%d pending=%d, want 1/2/2 and 5",
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
	if e.Steps() != 0 || e.Now() != 0 || len(r.fires) != 2 {
		t.Fatalf("Run after Reset dispatched %d events, clock at %d", e.Steps(), e.Now())
	}
	// The far edge is back at the origin: a short delay files into the
	// ring and a long one behind it, as on a fresh engine.
	r2 := newRecorder(e)
	r2.at(5, 0)
	r2.at(5*farSpan+1, 1)
	if e.ringCount != 1 || e.farCount != 1 {
		t.Fatalf("reused engine filed ring=%d far=%d, want 1/1", e.ringCount, e.farCount)
	}
	// Far slot 5 still held the previous run's index; the first push
	// into the emptied slot must have dropped it.
	if l, _, msg := farList(e, 5); msg != "" || len(l) != 1 || e.slab[l[0]].at != 5*farSpan+1 {
		t.Fatalf("reused engine: far list 5 holds %d entries (%s), want only the new event", len(l), msg)
	}
	e.Run()
	if want := []refFire{{5, 0}, {5*farSpan + 1, 1}}; !slices.Equal(r2.fires, want) {
		t.Fatalf("reused engine fired %v, want %v", r2.fires, want)
	}
}

// TestFarTierHoldsArrivalsInOrder is the 1e5-client arrival pattern in
// miniature: 1e5 typed events at Exp(5.5 ms) gaps, all within 100 ms —
// inside the far horizon, so none may touch the overflow list — fired
// in exactly the order of a sorted (at, scheduling order) reference.
func TestFarTierHoldsArrivalsInOrder(t *testing.T) {
	const (
		total  = 100_000
		meanNS = 5.5e6
		endNS  = 100e6
	)
	e := NewEngine()
	rng := NewRNG(7, 18)
	var want, got []refFire // ids count schedules, so (at, id) is (at, scheduling order)
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
			t.Fatalf("t=%d: %d events in the overflow list, want the far tier to hold them all", e.Now(), len(e.overflow))
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
	// Hundreds of arrivals per far bucket: every list spans many blocks.
	if msg := checkCalendar(e); msg != "" {
		t.Fatal(msg)
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
			t.Fatalf("firing %d = %+v, sorted (at, scheduling order) reference has %+v", i, got[i], want[i])
		}
	}
}

// TestTelemetryOverflowCountsBeyondRing pins the gauge's meaning:
// Overflow is everything pending beyond the ring — far tier plus
// overflow list — and Pending includes it.
func TestTelemetryOverflowCountsBeyondRing(t *testing.T) {
	e := NewEngine()
	r := newRecorder(e)
	tel := NewTelemetry(1, 4)
	e.SetTelemetry(tel)
	for i, at := range []Time{10, 20, 4 * farSpan, 9 * farSpan, 2 * farHorizon} {
		r.at(at, i)
	}
	e.RunUntil(10)
	if len(tel.Samples) != 1 {
		t.Fatalf("took %d samples, want 1", len(tel.Samples))
	}
	if s := tel.Samples[0]; s.Pending != 5 || s.Overflow != 3 {
		t.Fatalf("sample %+v, want Pending 5 (all tiers) and Overflow 3 (2 far + 1 overflow list)", s)
	}
}

// refEngine is the reference semantics: a stable sort over (clamped
// time, scheduling order), executed one event at a time.
type refEngine struct {
	now Time
	evs []refFire // pending, in scheduling order
}

type refFire struct {
	at Time
	id int
}

func (r *refEngine) at(t Time, id int) {
	r.evs = append(r.evs, refFire{at: max(t, r.now), id: id})
}

func (r *refEngine) step() (refFire, bool) {
	if len(r.evs) == 0 {
		return refFire{}, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		if r.evs[i].at < r.evs[best].at {
			best = i
		}
	}
	ev := r.evs[best]
	r.evs = slices.Delete(r.evs, best, best+1)
	r.now = ev.at
	return ev, true
}

// scriptHandler records typed-event firings for the equivalence test.
type scriptHandler struct {
	e     *Engine
	hid   int32
	fires *[]refFire
	// follow holds the follow-up events each fired event schedules.
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
// script on the reference model and on the engine's typed API, and
// requires the identical firing sequence (time and identity) from both.
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
			refFires = append(refFires, ev)
			for _, op := range follow[ev.id] {
				ref.at(ref.now+max(op.delay, 0), op.id)
			}
		}

		// Typed API.
		te := NewEngine()
		var typedFires []refFire
		h := &scriptHandler{e: te, fires: &typedFires, follow: follow}
		h.hid = te.Register(h)
		for _, op := range initial {
			te.Schedule(op.delay, h.hid, 0, nil, int64(op.id))
		}
		te.Run()

		if !slices.Equal(typedFires, refFires) {
			t.Fatalf("trial %d: engine fired %v, reference fired %v", trial, typedFires, refFires)
		}
	}
}

// TestZeroValueEngine pins the documented contract that the zero value
// is ready to use at time 0: alloc lazily initializes storage before
// touching the free list, so scheduling on a `var e Engine` (whose
// freeHead and chain heads are 0, not nilIdx) must not index a nil slab
// or read a stale head as a chain.
func TestZeroValueEngine(t *testing.T) {
	var e Engine
	r := newRecorder(&e)
	// A far-tier delay first: the far edge needs its anchor, and the far
	// list must hold that one event, not a stale zero index.
	r.at(3*farSpan+7, 0)
	r.at(30, 1)
	r.at(10, 2)
	r.then[2] = func() { r.after(5, 3) }
	if e.ringCount != 2 || e.farCount != 1 {
		t.Fatalf("zero-value engine filed ring=%d far=%d, want 2/1", e.ringCount, e.farCount)
	}
	if l, _, msg := farList(&e, 3); msg != "" || len(l) != 1 || e.slab[l[0]].at != 3*farSpan+7 {
		t.Fatalf("zero-value engine: far list 3 is not the one event scheduled into it")
	}
	e.Run()
	if want := []refFire{{10, 2}, {15, 3}, {30, 1}, {3*farSpan + 7, 0}}; !slices.Equal(r.fires, want) {
		t.Fatalf("fired %v, want %v", r.fires, want)
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

// denseModel is the engine load of the 64-rack fabric point: ~2k
// pending events at ~300 events per simulated µs. Each event
// reschedules itself by the next gap of a fixed table — one in eight a
// same-time follow-up, five in eight a sub-µs hop, one in four an
// Exp(25 µs) service time, whose tail files past the ring. Beside it
// runs a long chain: every millisecond one long event fires (filed in
// the far tier, spilled into the ring) and reschedules itself beyond
// the far horizon, and one from the overflow list moves into the far
// tier, so a drain of a few milliseconds crosses every tier.
type denseModel struct {
	e         *Engine
	hid, long int32
	n, longs  int
	gaps      [1 << 12]int64
}

const (
	densePending = 2048
	denseLongs   = 64
	denseLongGap = farHorizon + farLead*farSpan // beyond the far horizon from anywhere
)

func newDenseModel() *denseModel {
	m := &denseModel{e: NewEngine()}
	rng := NewRNG(3, 64)
	hops := [...]int64{150, 300, 500, 1000}
	for i := range m.gaps {
		switch k := rng.IntN(8); {
		case k == 0:
		case k < 6:
			m.gaps[i] = hops[rng.IntN(len(hops))]
		default:
			m.gaps[i] = int64(rng.ExpFloat64() * 25_000)
		}
	}
	m.hid = m.e.Register(handlerFunc(func(_ uint8, _ any, x int64) {
		m.n++
		m.e.ScheduleAfter(m.gaps[m.n&(len(m.gaps)-1)], m.hid, 0, nil, x)
	}))
	m.long = m.e.Register(handlerFunc(func(_ uint8, _ any, x int64) {
		m.longs++
		m.e.ScheduleAfter(denseLongGap, m.long, 0, nil, x)
	}))
	for i := range densePending {
		m.e.ScheduleAfter(m.gaps[i], m.hid, 0, nil, int64(i))
	}
	for i := range int64(denseLongs) {
		m.e.ScheduleAfter(i*1_000_000+500_000, m.long, 0, nil, 0)
		m.e.ScheduleAfter(denseLongGap+i*1_000_000, m.long, 0, nil, 0)
	}
	return m
}

// BenchmarkEngineDense is the engine cost at the 64-rack point's
// density: short segments of a few events per 16 ns bucket, frequent
// splices, and a far tier and overflow list that stay in use. One op is
// one event.
func BenchmarkEngineDense(b *testing.B) {
	m := newDenseModel()
	m.e.RunUntil(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for m.n = 0; m.n < b.N; {
		m.e.DrainBatch(math.MaxInt64)
	}
}

// TestEngineDenseSteadyStateZeroAllocs holds the dense model to zero
// allocations once warm, across tier crossings: every measured
// millisecond spills far buckets into the ring, fires a long event into
// the overflow list and moves another from it into the far tier, so the
// spill scratch, the counting-sort scratch, the batch and the overflow
// list must all reuse their capacity.
func TestEngineDenseSteadyStateZeroAllocs(t *testing.T) {
	m := newDenseModel()
	e := m.e
	deadline := Time(2_000_000)
	e.RunUntil(deadline)
	queued, longs := len(e.overflow), m.longs
	allocs := testing.AllocsPerRun(5, func() {
		deadline += 1_000_000
		e.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("dense steady state allocates %v times per millisecond, want 0", allocs)
	}
	fired := m.longs - longs
	if moved := queued + fired - len(e.overflow); fired < 5 || moved < 5 {
		t.Fatalf("measured drains fired %d long events and moved %d out of the overflow list, want 5 or more each", fired, moved)
	}
	if msg := checkCalendar(e); msg != "" {
		t.Fatal(msg)
	}
}

type handlerFunc func(kind uint8, arg any, x int64)

func (f handlerFunc) OnEvent(kind uint8, arg any, x int64) { f(kind, arg, x) }

// nopHandler is a typed-event sink for benchmarks.
type nopHandler struct{}

func (nopHandler) OnEvent(uint8, any, int64) {}

// BenchmarkEngineTypedScheduleAndRun schedules b.N events in time order
// and drains them: the sorted-batch path, growing the slab once.
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
// slab and zero allocations.
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

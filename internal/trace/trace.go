// Package trace is the simulator's flight recorder: typed, fixed-size
// request-lifecycle records written into preallocated ring buffers, plus
// the run-telemetry snapshot types surfaced through Result.Telemetry.
//
// The package imports nothing from the module but internal/stats (for
// the Breakdown reduction's histograms), so any layer (engine, cluster)
// can record into it without dependency cycles. The recording discipline mirrors the
// packet freelist's zero-alloc contract: a Recorder allocates nothing
// in steady state (Record writes into the prebuilt ring, head-drop on
// overflow; RecordAhead's side list keeps its high-water capacity
// across Reset), and a disabled recorder is a nil pointer whose guard is
// a single branch on the hot path. Tracing is strictly observational:
// nothing here schedules events or draws RNG, so recorder on/off cannot
// perturb the simulation's event order (pinned by the equivalence tests
// in internal/simcluster).
package trace

import "slices"

// Kind identifies one lifecycle site in a request's journey through the
// simulated cluster, in rough story order.
type Kind uint8

const (
	// KindIssue: the client created the request (open-loop arrival).
	KindIssue Kind = iota + 1
	// KindClone: a redundant copy was fanned out — by the switch
	// (NetClone recirculation) or by the client (C-Clone's second send).
	KindClone
	// KindDispatch: a ToR chose a destination server for a request copy
	// (Value = server ID; FlagClone set for the cloned copy).
	KindDispatch
	// KindSuppress: the congestion-reactive gate vetoed a clone because
	// the egress or return port sat past the marking threshold
	// (NetClone+Suppress; Port = the congested port).
	KindSuppress
	// KindBudgetSkip: the adaptive clone budget had no token
	// (NetClone+Adaptive; Port = the watched port).
	KindBudgetSkip
	// KindPortEnqueue: the packet joined a congested egress-port queue
	// (Value = post-arrival occupancy, Port = port index).
	KindPortEnqueue
	// KindMark: the packet was ECN-marked past the port's threshold
	// (Value = occupancy, Port = port index).
	KindMark
	// KindPortDrop: the packet was tail-dropped at a full port
	// (Value = occupancy, Port = port index).
	KindPortDrop
	// KindCloneDrop: the server-side stale-clone guard (§3.4) dropped a
	// cloned request that found a non-empty queue (Value = server ID).
	KindCloneDrop
	// KindServerArrive: the request reached the server NIC past the
	// stale-clone guard, before the dispatcher cost (Value = server ID).
	// Not drawn by WriteChrome; Breakdown measures queue wait from it.
	KindServerArrive
	// KindServerStart: a worker thread began service (Value = server ID).
	KindServerStart
	// KindServerFinish: service completed and the response was emitted
	// (Value = server ID).
	KindServerFinish
	// KindFilterDrop: the switch response filter dropped a redundant
	// (slower) response (Value = responding server ID).
	KindFilterDrop
	// KindWin: a response passed the filter first — the winning copy
	// (Value = responding server ID).
	KindWin
	// KindComplete: the client finished RX processing of the winning
	// response (Value = request latency in ns, saturated at MaxInt32).
	KindComplete
	// KindRedundant: the client discarded a response whose request had
	// already completed (the dedup-miss path filtering exists to remove).
	KindRedundant
)

// kindNames maps a Kind to its export label.
var kindNames = [...]string{
	"", "issue", "clone", "dispatch", "suppress", "budget-skip",
	"port-enqueue", "mark", "port-drop", "clone-drop", "server-arrive",
	"server-start", "server-finish", "filter-drop", "win",
	"complete", "redundant",
}

// String returns the kind's export label.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event flag bits.
const (
	// FlagClone marks events concerning a cloned request copy.
	FlagClone uint8 = 1 << iota
	// FlagECN marks events whose packet carried the ECN congestion bit.
	FlagECN
)

// Event is one fixed-size flight-recorder record. Client and Seq
// identify the logical request (stable across clones); Value and Port
// are kind-specific (see the Kind constants), -1 when not applicable.
type Event struct {
	// At is the virtual time of the event in nanoseconds.
	At int64
	// Seq is the client's request sequence number.
	Seq uint32
	// Value is the kind-specific payload: server ID, queue occupancy,
	// or completion latency. -1 when the kind carries none.
	Value int32
	// Port is the congestion-model port index for port events, -1
	// otherwise.
	Port int32
	// Client is the issuing client's ID.
	Client uint16
	// Rack is the rack where the event happened (the port's rack for
	// port events).
	Rack uint16
	// Kind is the lifecycle site.
	Kind Kind
	// Flags holds FlagClone / FlagECN.
	Flags uint8
}

// DefaultCap is the ring capacity used when WithTrace is
// given a non-positive cap.
const DefaultCap = 1 << 16

// Recorder is the flight-recorder ring. All storage is
// allocated at construction; Record never allocates. When the ring is
// full the oldest record is overwritten (head-drop: a flight recorder
// keeps the most recent history) and Dropped counts the losses.
//
// A nil *Recorder means tracing is disabled; callers guard every
// recording site with a nil (or packet-traced-flag) check, so the
// disabled path costs one predictable branch.
//
// The ring holds records in nondecreasing At, so head-drop keeps the
// newest window of the run. A record stamped ahead of the clock
// (RecordAhead) waits in a side list, sorted by At, until the clock
// reaches it.
type Recorder struct {
	rate    uint32
	buf     []Event
	next    int
	full    bool
	dropped int64
	ahead   []Event
}

// NewRecorder builds a recorder sampling every rate-th request per
// client into a ring of the given capacity (DefaultCap when cap <= 0).
func NewRecorder(rate, capacity int) *Recorder {
	r := &Recorder{}
	r.Reset(rate, capacity)
	return r
}

// Reset re-arms r for a new run — empty, no drops, the given
// rate and capacity — keeping the ring it already has when that is
// large enough, so a recycled recorder costs no allocation. Stale
// records need no clearing: only slots written since Reset are ever
// read back.
func (r *Recorder) Reset(rate, capacity int) {
	if rate < 1 {
		rate = 1
	}
	if capacity <= 0 {
		capacity = DefaultCap
	}
	buf := r.buf
	if cap(buf) < capacity {
		buf = make([]Event, capacity)
	}
	*r = Recorder{rate: uint32(rate), buf: buf[:capacity], ahead: r.ahead[:0]}
}

// Rate returns the sampling rate the recorder was built with.
func (r *Recorder) Rate() int { return int(r.rate) }

// Traced reports whether a request with the given client sequence
// number is sampled. The decision is a pure function of the sequence
// number — no RNG draw — so enabling tracing cannot perturb any random
// stream the simulation consumes.
func (r *Recorder) Traced(seq uint32) bool { return seq%r.rate == 0 }

// Record appends e, stamped with the current virtual time, to the ring,
// overwriting the oldest record when full. Ahead records the clock has
// reached by e.At go in first.
func (r *Recorder) Record(e Event) {
	if len(r.ahead) > 0 && r.ahead[0].At <= e.At {
		r.fileAhead(e.At)
	}
	r.write(e)
}

// RecordAhead holds e, stamped later than the current virtual time,
// until a Record at or past e.At (or Snapshot) files it into the ring.
// Ahead records with equal At keep their recording order.
func (r *Recorder) RecordAhead(e Event) {
	i := len(r.ahead)
	for i > 0 && r.ahead[i-1].At > e.At {
		i--
	}
	r.ahead = append(r.ahead, Event{})
	copy(r.ahead[i+1:], r.ahead[i:])
	r.ahead[i] = e
}

// Retract drops e, held by RecordAhead and not yet filed: a record of
// something that will no longer happen.
func (r *Recorder) Retract(e Event) {
	if i := slices.Index(r.ahead, e); i >= 0 {
		r.ahead = slices.Delete(r.ahead, i, i+1)
	}
}

// fileAhead moves the ahead records stamped at or before at into the
// ring.
func (r *Recorder) fileAhead(at int64) {
	n := 0
	for n < len(r.ahead) && r.ahead[n].At <= at {
		r.write(r.ahead[n])
		n++
	}
	r.ahead = r.ahead[:copy(r.ahead, r.ahead[n:])]
}

// write puts e in the ring's next slot.
func (r *Recorder) write(e Event) {
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of records the ring holds (ahead records wait
// outside it).
func (r *Recorder) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped returns the number of records lost to ring overwrite.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Snapshot files every ahead record, since the run is over, and copies
// the ring out in recording order, which is time order.
func (r *Recorder) Snapshot() *Data {
	if len(r.ahead) > 0 {
		r.fileAhead(r.ahead[len(r.ahead)-1].At)
	}
	d := &Data{Rate: int(r.rate), Dropped: r.dropped}
	d.Events = make([]Event, 0, r.Len())
	if r.full {
		d.Events = append(d.Events, r.buf[r.next:]...)
	}
	d.Events = append(d.Events, r.buf[:r.next]...)
	return d
}

// Data is a run's flight-recorder output: events in nondecreasing
// virtual-time order, plus the sampling rate and the ring-overwrite
// losses.
type Data struct {
	Events  []Event
	Rate    int
	Dropped int64
}

// Telemetry is the engine-counter view of a run (Result.Telemetry):
// the engine's statistics plus its time-binned gauges. Collected only
// when tracing is enabled, so disabled runs pay nothing and stay
// byte-identical.
type Telemetry struct {
	EngineStats
	// Engine holds the time-binned engine occupancy gauges, in
	// nondecreasing At order.
	Engine []EngineSample
	// BinNS is the gauge sampling bin width.
	BinNS int64
}

// EngineStats is the event engine's counters for one run.
type EngineStats struct {
	// Events is the number of engine events executed.
	Events int64
	// Bursts and MaxBurst describe the calendar engine's batch drains:
	// how many bursts ran and the largest single batch.
	Bursts   int64
	MaxBurst int
	// SampleDrops counts engine gauge samples dropped because the
	// preallocated sample buffer filled.
	SampleDrops int64
}

// EngineSample is one time-binned engine occupancy gauge: how full the
// calendar (ring, far tier, overflow list) was when a burst began, plus the
// congestion model's total port occupancy when one is configured.
type EngineSample struct {
	// At is the virtual time of the burst that took the sample.
	At int64
	// Pending is the number of scheduled events (calendar ring + far
	// tier + overflow list + current burst) at the sample point.
	Pending int32
	// Overflow is the portion of Pending beyond the ring's horizon: the
	// far tier plus the overflow list.
	Overflow int32
	// PortDepth is the congestion model's total queued-packet count
	// across all egress ports (0 when no model is configured).
	PortDepth int32
}

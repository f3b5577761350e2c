package simnet

// Telemetry is an optional, purely observational probe attached to an
// engine with SetTelemetry: the burst machinery counts its batch drains
// and — at most once per BinNS of virtual time — snapshots the engine's
// occupancy into the preallocated Samples buffer. The probe schedules
// nothing and draws no randomness, so attaching it cannot change the
// event order, and every write lands in storage sized at construction,
// so the steady path stays allocation-free (the flight-recorder
// discipline; see internal/trace).
type Telemetry struct {
	// Bursts counts batch drains; MaxBurst is the largest single batch.
	Bursts   int64
	MaxBurst int

	// BinNS is the minimum virtual-time gap between samples; 0 disables
	// sampling (burst counters still run).
	BinNS int64

	// Samples holds the occupancy snapshots, capacity fixed at
	// construction. SampleDrops counts snapshots skipped once full.
	Samples     []TelemetrySample
	SampleDrops int64

	// Aux, when non-nil, contributes one extra gauge per sample (the
	// cluster wires the congestion model's total port occupancy here).
	// It must only read state — it runs inside the burst machinery.
	Aux func() int32

	nextBin int64
}

// TelemetrySample is one occupancy snapshot, taken as a burst begins.
type TelemetrySample struct {
	// At is the burst's first event time.
	At int64
	// Pending counts all scheduled events at the snapshot (calendar
	// ring + far tier + overflow list + the collected batch).
	Pending int32
	// Overflow is the portion of Pending beyond the ring: the far tier
	// plus the beyond-far-horizon overflow list.
	Overflow int32
	// Aux is the Aux hook's reading (0 when no hook is set).
	Aux int32
}

// NewTelemetry builds a probe sampling at most once per binNS of
// virtual time into a buffer of maxSamples snapshots.
func NewTelemetry(binNS int64, maxSamples int) *Telemetry {
	if maxSamples < 0 {
		maxSamples = 0
	}
	return &Telemetry{BinNS: binNS, Samples: make([]TelemetrySample, 0, maxSamples)}
}

// SetTelemetry attaches t to the engine (nil detaches). Reset detaches
// automatically, so pooled engines never carry a stale probe into the
// next run.
func (e *Engine) SetTelemetry(t *Telemetry) { e.tel = t }

// observeBurst records a just-collected batch into the attached probe.
// Called from ensureBurst only when a probe is attached.
func (e *Engine) observeBurst() {
	t := e.tel
	t.Bursts++
	if n := len(e.batch); n > t.MaxBurst {
		t.MaxBurst = n
	}
	if t.BinNS <= 0 {
		return
	}
	at := e.slab[e.batch[0]].at
	if at < t.nextBin {
		return
	}
	t.nextBin = at - at%t.BinNS + t.BinNS
	if len(t.Samples) == cap(t.Samples) {
		t.SampleDrops++
		return
	}
	var aux int32
	if t.Aux != nil {
		aux = t.Aux()
	}
	beyond := e.farCount + len(e.overflow)
	t.Samples = append(t.Samples, TelemetrySample{
		At:       at,
		Pending:  int32(e.ringCount + beyond + len(e.batch)),
		Overflow: int32(beyond),
		Aux:      aux,
	})
}

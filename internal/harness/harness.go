// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§5), plus ablation experiments for the design
// choices called out in DESIGN.md. Each experiment produces the same rows
// or series the paper plots, at a configurable fidelity, so the whole
// evaluation can be regenerated with `netclone-bench -run all`.
package harness

import (
	"sort"

	"netclone/internal/scenario"
)

// Point is one datum of a series: X is the figure's x-axis value
// (measured throughput in MRPS, offered load fraction, or seconds), Y the
// y-axis value (99th-percentile latency in microseconds unless the
// experiment says otherwise). Err is a +/- error bar where the paper
// reports one (Fig 13b).
type Point struct {
	X   float64
	Y   float64
	Err float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// ReportKind classifies a report's shape so consumers can dispatch on
// structure instead of string-matching axis labels (the netclone-bench
// -timeline flag used to sniff `XLabel == "Time (s)"`, which broke the
// moment a label was reworded).
type ReportKind int

const (
	// ReportFigure is the default: load sweeps, bar figures, tables.
	ReportFigure ReportKind = iota
	// ReportTimeline marks time-series reports: every series' X values
	// are seconds from run start (fig16, chaos-*, cong-timeline).
	ReportTimeline
)

// Report is the output of one experiment: figures fill Series, tables
// fill Table (first row is the header). Notes carry caveats and
// calibration remarks that belong next to the numbers. Kind declares
// the report's shape for structural consumers; it does not render.
type Report struct {
	ID     string
	Title  string
	Kind   ReportKind
	XLabel string
	YLabel string
	Series []Series
	Table  [][]string
	Notes  []string
}

// NoWarmup is the explicit Options.WarmupNS sentinel for "measure from
// time zero". A zero WarmupNS means "unset" and is filled with the
// Default() warmup.
const NoWarmup int64 = -1

// Options scale experiment fidelity. The zero value is filled with
// Default(); benchmarks use Quick() to keep iterations short.
type Options struct {
	// DurationNS is the per-point measurement window.
	DurationNS int64
	// WarmupNS precedes every measurement window. Zero means the
	// Default() warmup; use NoWarmup to disable warmup explicitly.
	WarmupNS int64
	// Seed drives every simulation; experiments derive per-point seeds
	// from it deterministically.
	Seed uint64
	// LoadFracs is the offered-load grid as fractions of estimated
	// cluster capacity.
	LoadFracs []float64
	// Repeats is the number of runs per point for experiments that
	// average over runs (Fig 13b).
	Repeats int
	// Parallelism bounds how many simulation points run concurrently.
	// Zero means one worker per CPU (GOMAXPROCS); 1 forces sequential
	// execution. Reports are byte-identical at every parallelism level:
	// the knob only changes wall time.
	Parallelism int
	// TraceRate, when positive, arms the flight recorder on every
	// simulation point (scenario.WithTrace): every TraceRate-th request
	// per client is recorded through its lifecycle into the point's
	// Result.Trace, with run telemetry in Result.Telemetry. Like
	// Parallelism, the knob is result-invariant — recording is strictly
	// observational, so reports stay byte-identical with tracing on or
	// off. Consume the per-point trace data through Observe; reports
	// never render it.
	// TraceCap bounds each recorder ring (0 means the trace.DefaultCap).
	// Sim backend only: the Emu backend rejects traced scenarios.
	TraceRate int
	TraceCap  int
	// Observe, when non-nil, is called with every completed point's
	// label and full backend result — the harness's side channel for
	// run observability (engine telemetry, flight-recorder data) that
	// deliberately lives outside the byte-identical Report. Calls may be
	// concurrent when Parallelism allows; the callback synchronizes.
	Observe func(label string, res scenario.Result)
	// Progress, when non-nil, is called after each simulation point of
	// the running batch completes, with the number of finished points
	// and the batch's point total. Every built-in experiment executes
	// one batch, so done == total marks the end of its simulations.
	// Calls are serialized.
	Progress func(done, total int)
	// Backend executes the experiment's scenario points. Nil means the
	// deterministic simulator (scenario.Sim()); scenario.Emu() runs the
	// same scenarios on the real-UDP loopback emulation for the subset
	// of experiments whose features the emulation models.
	Backend scenario.Backend
}

// Default returns full-fidelity options (minutes of wall time for the
// whole suite).
func Default() Options {
	return Options{
		DurationNS: 200e6,
		WarmupNS:   50e6,
		Seed:       1,
		LoadFracs:  []float64{0.05, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90, 1.00},
		Repeats:    10,
	}
}

// Quick returns reduced-fidelity options for tests and testing.B
// benchmarks (seconds for the whole suite).
func Quick() Options {
	return Options{
		DurationNS: 30e6,
		WarmupNS:   10e6,
		Seed:       1,
		LoadFracs:  []float64{0.15, 0.45, 0.75},
		Repeats:    3,
	}
}

// withDefaults fills zero fields from Default() and normalizes the
// NoWarmup sentinel, so downstream code can use WarmupNS directly.
func (o Options) withDefaults() Options {
	d := Default()
	if o.DurationNS <= 0 {
		o.DurationNS = d.DurationNS
	}
	if o.WarmupNS == 0 {
		o.WarmupNS = d.WarmupNS
	}
	if o.WarmupNS < 0 {
		o.WarmupNS = 0
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if len(o.LoadFracs) == 0 {
		o.LoadFracs = d.LoadFracs
	}
	if o.Repeats <= 0 {
		o.Repeats = d.Repeats
	}
	return o
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper says which artifact this regenerates.
	Paper string
	Run   func(Options) (Report, error)
}

var registry = map[string]*Experiment{}
var order []string

// register adds an experiment at package init.
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in registration (paper) order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the sorted experiment IDs.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ---------------------------------------------------------------------
// Shared sweep machinery

// capacityRPS estimates the cluster's saturation throughput: total worker
// threads divided by mean service time.
func capacityRPS(workers []int, meanServiceNS float64) float64 {
	total := 0
	for _, w := range workers {
		total += w
	}
	return float64(total) / (meanServiceNS / 1e9)
}

// homWorkers returns n servers with w worker threads each.
func homWorkers(n, w int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

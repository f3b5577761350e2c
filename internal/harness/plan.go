package harness

import (
	"errors"
	"fmt"
	"time"

	"netclone/internal/runner"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/stats"
)

// This file is the declarative run-plan layer: experiments *describe*
// their grid of Scenarios instead of executing nested loops inline, and
// the internal/runner worker pool executes the grid — in parallel when
// Options.Parallelism allows — on the backend selected by
// Options.Backend (the deterministic simulator by default), with
// results reduced back into report series in a fixed order. Reducers
// are pure per-result functions, so reports are byte-identical at every
// parallelism level.

// RunSpec is one executable point of an experiment plan: a fully seeded
// Scenario plus where its reduced datum lands in the report.
type RunSpec struct {
	// Label names the point in error messages ("NetClone at 45%").
	Label string
	// Series and Point locate the reduced datum in the owning Plan's
	// output grid. Both are zero for bare specs run via runSpecs.
	Series int
	Point  int
	// Scenario is the complete experiment input, seed included.
	Scenario *scenario.Scenario
	// Reduce turns the backend result into the plotted datum; nil for
	// table experiments that consume raw Results.
	Reduce func(scenario.Result) Point
}

// Plan is a declarative experiment grid: the labelled series of a
// figure and every scenario point that fills them.
type Plan struct {
	labels []string
	counts []int
	specs  []RunSpec
}

// series appends a new output series and returns its index.
func (p *Plan) series(label string) int {
	p.labels = append(p.labels, label)
	p.counts = append(p.counts, 0)
	return len(p.labels) - 1
}

// point appends one scenario point to the given series.
func (p *Plan) point(series int, label string, sc *scenario.Scenario, reduce func(scenario.Result) Point) {
	p.specs = append(p.specs, RunSpec{
		Label:    label,
		Series:   series,
		Point:    p.counts[series],
		Scenario: sc,
		Reduce:   reduce,
	})
	p.counts[series]++
}

// append merges another plan's series and points after p's own.
func (p *Plan) append(q *Plan) {
	off := len(p.labels)
	p.labels = append(p.labels, q.labels...)
	p.counts = append(p.counts, q.counts...)
	for _, s := range q.specs {
		s.Series += off
		p.specs = append(p.specs, s)
	}
}

// run executes every point of the plan through the runner and reduces
// the results into series. Each datum lands at its spec's (Series,
// Point) coordinates regardless of completion or declaration order.
func (p *Plan) run(opts Options) ([]Series, error) {
	results, err := runSpecs(p.specs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(p.labels))
	for i, label := range p.labels {
		out[i] = Series{Label: label, Points: make([]Point, p.counts[i])}
	}
	for i, spec := range p.specs {
		out[spec.Series].Points[spec.Point] = spec.Reduce(results[i])
	}
	return out, nil
}

// backend resolves the execution backend: Options.Backend, defaulting
// to the deterministic simulator.
func (o Options) backend() scenario.Backend {
	if o.Backend != nil {
		return o.Backend
	}
	return scenario.Sim()
}

// runSpecs executes bare specs on the selected backend and returns raw
// results in spec order — the entry point for table experiments that
// reduce results themselves.
func runSpecs(specs []RunSpec, opts Options) ([]scenario.Result, error) {
	be := opts.backend()
	results, err := runner.Execute(specs, runner.Options{
		Parallelism: opts.Parallelism,
		OnProgress:  opts.Progress,
	}, func(s RunSpec) (scenario.Result, error) {
		sc := s.Scenario
		if opts.TraceRate > 0 {
			// Result-invariant: recording is observational, and the
			// trace payload rides outside the reduced report. With
			// applies to a copy, so the spec's scenario — possibly
			// shared across repeats — is untouched.
			sc = sc.With(scenario.WithTrace(opts.TraceRate, opts.TraceCap))
		}
		res, err := be.Run(sc)
		if err == nil && opts.Observe != nil {
			opts.Observe(s.Label, res)
		}
		return res, err
	})
	if err != nil {
		return nil, labelPointErrors(specs, err)
	}
	return results, nil
}

// labelPointErrors rewrites every failed point's error with the spec's
// own label ("NetClone at 45%: ..."), preserving the runner's per-point
// aggregation.
func labelPointErrors(specs []RunSpec, err error) error {
	label := func(e error) error {
		var pe *runner.PointError
		if errors.As(e, &pe) && pe.Index < len(specs) && specs[pe.Index].Label != "" {
			return fmt.Errorf("%s: %w", specs[pe.Index].Label, pe.Err)
		}
		return e
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return label(err)
	}
	var out []error
	for _, e := range joined.Unwrap() {
		out = append(out, label(e))
	}
	return errors.Join(out...)
}

// latencyPoint is the standard figure reducer: throughput in MRPS on X,
// p99 latency in microseconds on Y.
func latencyPoint(res scenario.Result) Point {
	return Point{X: res.ThroughputRPS / 1e6, Y: float64(res.Latency.P99) / 1e3}
}

// seriesSpec declares one curve of a sweep: a label plus the scenario
// options (scheme and any ablation knobs) applied on top of the sweep's
// base scenario.
type seriesSpec struct {
	Label string
	Opts  []scenario.Option
}

// schemeSeries builds the common case: one series per scheme.
func schemeSeries(schemes []simcluster.Scheme) []seriesSpec {
	out := make([]seriesSpec, len(schemes))
	for i, s := range schemes {
		out[i] = seriesSpec{Label: s.String(), Opts: []scenario.Option{scenario.WithScheme(s)}}
	}
	return out
}

// windowOf maps the fidelity options onto a scenario measurement
// window.
func windowOf(opts Options) scenario.Option {
	return scenario.WithWindow(time.Duration(opts.WarmupNS), time.Duration(opts.DurationNS))
}

// sweepPlanSeeded describes the paper's standard figure shape — every
// series at every load fraction — with per-point seeds supplied by
// seedOf(series index, load index).
func sweepPlanSeeded(base *scenario.Scenario, series []seriesSpec, capRPS float64, opts Options, seedOf func(si, li int) uint64) *Plan {
	p := &Plan{}
	for si, v := range series {
		sid := p.series(v.Label)
		for li, frac := range opts.LoadFracs {
			sc := base.With(v.Opts...).With(
				scenario.WithOfferedLoad(frac*capRPS),
				windowOf(opts),
				scenario.WithSeed(seedOf(si, li)),
			)
			p.point(sid, fmt.Sprintf("%s at %.0f%%", v.Label, frac*100), sc, latencyPoint)
		}
	}
	return p
}

// sweepPlan seeds every point independently — each series gets its own
// randomness, the shape for comparing unrelated schemes.
func sweepPlan(base *scenario.Scenario, series []seriesSpec, capRPS float64, opts Options) *Plan {
	return sweepPlanSeeded(base, series, capRPS, opts, func(si, li int) uint64 {
		return opts.Seed + uint64(si*1000+li)
	})
}

// pairedSweepPlan seeds every series identically, so all variants see
// the same arrival and service randomness and the delta between series
// isolates the ablated knob (the abl-*/ext-multirack shape).
func pairedSweepPlan(base *scenario.Scenario, series []seriesSpec, capRPS float64, opts Options) *Plan {
	return sweepPlanSeeded(base, series, capRPS, opts, func(_, li int) uint64 {
		return opts.Seed + uint64(li)
	})
}

// sweep runs base at every load fraction for every scheme and returns
// one latency-vs-throughput series per scheme.
func sweep(base *scenario.Scenario, schemes []simcluster.Scheme, capRPS float64, opts Options) ([]Series, error) {
	return sweepPlan(base, schemeSeries(schemes), capRPS, opts).run(opts)
}

// repeatSpecs derives opts.Repeats seed-varied copies of one scenario
// (the Fig 13b repeated-runs shape).
func repeatSpecs(sc *scenario.Scenario, opts Options) []RunSpec {
	scheme := sc.Config().Scheme
	specs := make([]RunSpec, opts.Repeats)
	for r := range specs {
		specs[r] = RunSpec{
			Label:    fmt.Sprintf("%s run %d", scheme, r),
			Scenario: sc.With(scenario.WithSeed(opts.Seed + uint64(r)*7919)),
		}
	}
	return specs
}

// p99MeanStd reduces a group of repeat-run results to the mean and
// standard deviation of their p99 latencies in microseconds.
func p99MeanStd(results []scenario.Result) (mean, std float64) {
	p99s := make([]float64, len(results))
	for i, res := range results {
		p99s[i] = float64(res.Latency.P99) / 1e3
	}
	return stats.MeanStd(p99s)
}

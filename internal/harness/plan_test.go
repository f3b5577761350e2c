package harness

import (
	"strings"
	"sync"
	"testing"
	"time"

	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
)

// TestRunSpecsObserveAndTrace pins the harness observability plumbing
// on two bare specs: Options.TraceRate arms WithTrace on every point,
// Observe receives each point's label and full result — trace payload
// included — and the spec's own scenario object stays untouched (With
// must copy).
func TestRunSpecsObserveAndTrace(t *testing.T) {
	base := fabricScenario(
		topology.Rack{Servers: []int{4, 4}},
		topology.Rack{Servers: []int{4, 4}, Uplink: time.Microsecond},
	).With(
		scenario.WithScheme(simcluster.NetClone),
		scenario.WithOfferedLoad(2e5),
		scenario.WithWindow(time.Millisecond, 2*time.Millisecond),
		scenario.WithSeed(3),
	)
	specs := []RunSpec{
		{Label: "traced point", Scenario: base},
		{Label: "second point", Scenario: base.With(scenario.WithSeed(4))},
	}
	var mu sync.Mutex
	got := map[string]scenario.Result{}
	opts := Options{
		Parallelism: 2,
		TraceRate:   4,
		Observe: func(label string, res scenario.Result) {
			mu.Lock()
			defer mu.Unlock()
			got[label] = res
		},
	}
	results, err := runSpecs(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(got) != 2 {
		t.Fatalf("%d results, %d observed; want 2/2", len(results), len(got))
	}
	for label, res := range got {
		if res.Trace == nil || len(res.Trace.Events) == 0 {
			t.Errorf("%s: no flight-recorder data despite TraceRate", label)
		}
		if res.Telemetry == nil {
			t.Errorf("%s: no telemetry despite TraceRate", label)
		}
	}
	if cfg := base.Config(); cfg.TraceRate != 0 {
		t.Error("runSpecs mutated the spec's scenario")
	}
}

// TestSweepPlanShape checks the plan layer's bookkeeping: specs land in
// the declared series, in load order, with distinct per-point seeds.
func TestSweepPlanShape(t *testing.T) {
	opts := Options{
		DurationNS: 1e6, WarmupNS: 1e6, Seed: 42,
		LoadFracs: []float64{0.2, 0.5, 0.9}, Repeats: 1,
	}
	base := ablBase()
	schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
	plan := sweepPlan(base, schemeSeries(schemes), capacityOf(base), opts)
	if got, want := len(plan.specs), len(schemes)*len(opts.LoadFracs); got != want {
		t.Fatalf("plan has %d specs, want %d", got, want)
	}
	seeds := map[uint64]bool{}
	for i, spec := range plan.specs {
		si, li := i/len(opts.LoadFracs), i%len(opts.LoadFracs)
		if spec.Series != si || spec.Point != li {
			t.Errorf("spec %d placed at series %d point %d, want %d/%d",
				i, spec.Series, spec.Point, si, li)
		}
		cfg := spec.Scenario.Config()
		if cfg.Scheme != schemes[si] {
			t.Errorf("spec %d scheme = %v, want %v", i, cfg.Scheme, schemes[si])
		}
		if cfg.WarmupNS != opts.WarmupNS || cfg.DurationNS != opts.DurationNS {
			t.Errorf("spec %d window = %d/%d, want %d/%d", i,
				cfg.WarmupNS, cfg.DurationNS, opts.WarmupNS, opts.DurationNS)
		}
		if seeds[cfg.Seed] {
			t.Errorf("spec %d reuses seed %d", i, cfg.Seed)
		}
		seeds[cfg.Seed] = true
	}
}

// TestPairedSweepPlanSharesSeeds checks the ablation shape: every
// series runs on identical per-load seeds, so the delta between
// variants isolates the ablated knob.
func TestPairedSweepPlanSharesSeeds(t *testing.T) {
	opts := Options{
		DurationNS: 1e6, WarmupNS: 1e6, Seed: 7,
		LoadFracs: []float64{0.2, 0.8}, Repeats: 1,
	}
	base := ablBase()
	series := []seriesSpec{
		{Label: "a", Opts: []scenario.Option{scenario.WithScheme(simcluster.NetClone)}},
		{Label: "b", Opts: []scenario.Option{
			scenario.WithScheme(simcluster.NetClone),
			scenario.WithoutCloneDropGuard(),
		}},
	}
	plan := pairedSweepPlan(base, series, 1e6, opts)
	n := len(opts.LoadFracs)
	for li := 0; li < n; li++ {
		a, b := plan.specs[li].Scenario.Config(), plan.specs[n+li].Scenario.Config()
		if a.Seed != b.Seed {
			t.Errorf("load %d: seeds %d vs %d, want shared", li, a.Seed, b.Seed)
		}
		if a.OfferedRPS != b.OfferedRPS {
			t.Errorf("load %d: offered %v vs %v, want shared", li, a.OfferedRPS, b.OfferedRPS)
		}
	}
}

// TestLabelPointErrors checks that every failed point keeps its label
// through the harness error path, not just the first.
func TestLabelPointErrors(t *testing.T) {
	opts := Options{
		DurationNS: 1e6, WarmupNS: 1e6, Seed: 1,
		LoadFracs: []float64{0.5}, Repeats: 1, Parallelism: 2,
	}
	specs := []RunSpec{
		{Label: "good", Scenario: ablBase().With(
			scenario.WithScheme(simcluster.NetClone),
			scenario.WithOfferedLoad(1e5),
			windowOf(opts),
		)},
		{Label: "bad one", Scenario: scenario.New()},
		{Label: "bad two", Scenario: scenario.New()},
	}
	_, err := runSpecs(specs, opts)
	if err == nil {
		t.Fatal("expected error from invalid configs")
	}
	msg := err.Error()
	for _, want := range []string{"bad one", "bad two"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing label %q", msg, want)
		}
	}
	if strings.Contains(msg, "good") {
		t.Errorf("error %q names the successful point", msg)
	}
}

// TestPlanAppend checks that merged plans keep series and points in
// declaration order (the Fig 9 multi-size shape).
func TestPlanAppend(t *testing.T) {
	opts := Options{
		DurationNS: 1e6, WarmupNS: 1e6, Seed: 1,
		LoadFracs: []float64{0.5}, Repeats: 1,
	}
	base := ablBase()
	p := sweepPlan(base, schemeSeries([]simcluster.Scheme{simcluster.Baseline}), 1e6, opts)
	q := sweepPlan(base, schemeSeries([]simcluster.Scheme{simcluster.NetClone}), 1e6, opts)
	p.append(q)
	if len(p.labels) != 2 || p.labels[0] != "Baseline" || p.labels[1] != "NetClone" {
		t.Fatalf("merged labels = %v", p.labels)
	}
	if p.specs[1].Series != 1 {
		t.Errorf("appended spec series = %d, want 1", p.specs[1].Series)
	}
}

package simcluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"netclone/internal/faults"
	"netclone/internal/trace"
)

// stripTrace removes the flight-recorder outputs from a Result so the
// remainder can be compared against an untraced run.
func stripTrace(r *Result) {
	r.Trace = nil
	r.Telemetry = nil
}

// traceEquivalenceConfigs is the on/off equivalence matrix: every
// scheme on the shared-fabric base, plus the perf-test variants
// (congested, multi-rack, lossy, LÆDGE-coordinated) and a
// switch-failure fault window. The "sampled" variant is traced
// already, so it has no untraced side to compare.
func traceEquivalenceConfigs() map[string]Config {
	cfgs := perfTestConfigs()
	delete(cfgs, "sampled")
	schemes := map[string]Scheme{
		"baseline":  Baseline,
		"racksched": NetCloneRackSched,
	}
	for name, s := range schemes {
		c := cfgs["netclone"]
		c.Scheme = s
		cfgs[name] = c
	}
	failed := cfgs["netclone"]
	failed.Faults = faults.New(faults.SwitchOutage(1500*time.Microsecond, 2*time.Millisecond))
	cfgs["switchfail"] = failed
	return cfgs
}

// TestTraceRecorderOnOffEquivalence pins the flight recorder's core
// contract: enabling tracing must not perturb the simulation. For every
// scheme and model variant, the traced run's Result — minus the trace
// payload itself — is deeply equal to the untraced run's.
func TestTraceRecorderOnOffEquivalence(t *testing.T) {
	for name, cfg := range traceEquivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base.Trace != nil || base.Telemetry != nil {
				t.Fatal("untraced run carries trace data")
			}
			for _, rate := range []int{1, 7} {
				tcfg := cfg
				tcfg.TraceRate = rate
				traced, err := Run(tcfg)
				if err != nil {
					t.Fatal(err)
				}
				if traced.Trace == nil || traced.Telemetry == nil {
					t.Fatalf("rate %d: traced run missing Trace/Telemetry", rate)
				}
				if len(traced.Trace.Events) == 0 {
					t.Fatalf("rate %d: recorder captured no events", rate)
				}
				if tel := traced.Telemetry; tel.Events != traced.EngineEvents || tel.Bursts == 0 {
					t.Errorf("rate %d: telemetry counts %d events in %d bursts, the engine ran %d",
						rate, tel.Events, tel.Bursts, traced.EngineEvents)
				}
				stripTrace(&traced)
				if !reflect.DeepEqual(base, traced) {
					t.Errorf("rate %d: tracing perturbed the result\nbase:   %+v\ntraced: %+v", rate, base, traced)
				}
			}
		})
	}
}

// chromeTraceFile mirrors the trace-event JSON shape for decoding.
type chromeTraceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceChromeExportIncast runs the congested multi-rack NetClone
// point at rate 1 and checks the Chrome export end to end: the JSON
// parses, per-rack tracks are declared, service spans nest
// inside their flight spans, and at least one cloned request's group
// carries an ECN-marked hop (the congestion story the recorder exists
// to tell).
func TestTraceChromeExportIncast(t *testing.T) {
	cfg := perfTestConfigs()["congested"]
	cfg.TraceRate = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Trace
	if d == nil || len(d.Events) == 0 {
		t.Fatal("no trace recorded")
	}

	// Raw-event checks first: some request was cloned AND marked.
	type key struct {
		cli uint16
		seq uint32
	}
	cloned := map[key]bool{}
	marked := map[key]bool{}
	kinds := map[trace.Kind]int{}
	for _, e := range d.Events {
		kinds[e.Kind]++
		k := key{e.Client, e.Seq}
		switch e.Kind {
		case trace.KindClone:
			cloned[k] = true
		case trace.KindMark:
			marked[k] = true
		}
	}
	for _, want := range []trace.Kind{
		trace.KindIssue, trace.KindDispatch, trace.KindClone,
		trace.KindPortEnqueue, trace.KindMark, trace.KindPortDrop,
		trace.KindServerStart, trace.KindServerFinish, trace.KindComplete,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events recorded under congested incast", want)
		}
	}
	both := 0
	for k := range cloned {
		if marked[k] {
			both++
		}
	}
	if both == 0 {
		t.Error("no cloned request carries an ECN-marked hop")
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d); err != nil {
		t.Fatal(err)
	}
	var f chromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}

	procs := map[int]bool{}
	tracks := map[[2]int]bool{}
	type span struct {
		ts, end  float64
		pid, tid int
	}
	flights := map[string]span{}
	services, clones, instants := 0, 0, 0
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procs[e.Pid] = true
		case e.Ph == "M" && e.Name == "thread_name":
			tracks[[2]int{e.Pid, e.Tid}] = true
		case e.Ph == "X" && e.Cat == "flight":
			flights[e.Name] = span{e.Ts, e.Ts + e.Dur, e.Pid, e.Tid}
			if c, _ := e.Args["clone"].(bool); c {
				clones++
			}
		case e.Ph == "X" && e.Cat == "service":
			services++
		case e.Ph == "i":
			instants++
		}
	}
	if len(procs) == 0 {
		t.Error("no process_name metadata")
	}
	if len(tracks) < 2 {
		t.Errorf("%d rack tracks declared, want >= 2 on the multi-rack fabric", len(tracks))
	}
	if len(flights) == 0 || services == 0 {
		t.Fatalf("no spans: %d flights, %d services", len(flights), services)
	}
	if clones == 0 {
		t.Error("no clone-flight span survived to the export")
	}
	if instants == 0 {
		t.Error("no instant events (marks/drops/decisions)")
	}
	// Nesting: every service span sits inside the flight span of the
	// same copy on the same track. Service names are "service <copy>",
	// flights "flight <copy>" or "clone flight <copy>".
	nested := 0
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Cat != "service" {
			continue
		}
		copyName := e.Name[len("service "):]
		fl, ok := flights["flight "+copyName]
		if !ok {
			fl, ok = flights["clone flight "+copyName]
		}
		if !ok {
			t.Errorf("service span %q has no flight span", e.Name)
			continue
		}
		if fl.pid != e.Pid || fl.tid != e.Tid {
			t.Errorf("service span %q on track (%d,%d), flight on (%d,%d)", e.Name, e.Pid, e.Tid, fl.pid, fl.tid)
		}
		if e.Ts < fl.ts || e.Ts+e.Dur > fl.end+1e-9 {
			t.Errorf("service span %q [%.3f, %.3f] escapes flight [%.3f, %.3f]",
				e.Name, e.Ts, e.Ts+e.Dur, fl.ts, fl.end)
		}
		nested++
	}
	if nested == 0 {
		t.Error("no service span verified nested")
	}
}

// TestTraceCSVExport smoke-checks the CSV writer on real run data.
func TestTraceCSVExport(t *testing.T) {
	cfg := perfTestConfigs()["netclone"]
	cfg.TraceRate = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(res.Trace.Events)+1 {
		t.Fatalf("CSV has %d lines for %d events + header", len(lines), len(res.Trace.Events))
	}
	if !bytes.HasPrefix(lines[0], []byte("at_ns,kind,client,seq")) {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}

// TestTraceRingHeadDrop pins the flight-recorder overflow policy at the
// cluster level: a tiny ring keeps only the newest records and counts
// what it overwrote.
func TestTraceRingHeadDrop(t *testing.T) {
	cfg := perfTestConfigs()["netclone"]
	cfg.TraceRate = 1
	cfg.TraceCap = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Trace.Events); got != 64 {
		t.Fatalf("ring of 64 holds %d events", got)
	}
	if res.Trace.Dropped == 0 {
		t.Fatal("full ring counted no overwrites")
	}
	// The survivors are the newest window of the run.
	full := cfg
	full.TraceCap = trace.DefaultCap
	fres, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	tail := fres.Trace.Events[len(fres.Trace.Events)-64:]
	if !reflect.DeepEqual(res.Trace.Events, tail) {
		t.Error("head-drop ring does not hold the newest 64 records")
	}
}

// TestTraceRecycledRingIdentical pins the recorder pool (pool.go): a
// traced run that picks up another run's used ring — different seed,
// rate and capacity, so every slot holds foreign records —
// reports the trace and result a never-recycled recorder does.
func TestTraceRecycledRingIdentical(t *testing.T) {
	cfg := perfTestConfigs()["multirack"]
	cfg.TraceRate = 7
	dirty := cfg
	dirty.Seed, dirty.TraceRate = cfg.Seed+1, 1
	for _, tcap := range []int{0, 4096} {
		cfg.TraceCap = tcap
		recPool = sync.Pool{} // the reference run builds its own recorder
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(dirty); err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cap %d: a recycled ring changed the traced result", tcap)
		}
	}
}

// TestTraceDisabledZeroAllocs guards the tentpole's zero-cost claim
// (CI bench-smoke alloc-guard): with TraceRate 0 every recording site
// is a nil recorder and an unset packet flag, so the congested steady
// path — the configuration with the most recording sites compiled in —
// still allocates nothing per event.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	c := benchBuildCongested(t)
	if c.rec != nil || c.tel != nil {
		t.Fatal("recorder present with TraceRate 0")
	}
	c.startClients()
	deadline := int64(20e6)
	c.eng.RunUntil(deadline)
	allocs := testing.AllocsPerRun(50, func() {
		deadline += 100_000 // 100us of virtual time per round
		c.eng.RunUntil(deadline)
	})
	if allocs > 1 {
		t.Errorf("untraced steady path allocates %.1f allocs per 100us round, want ~0", allocs)
	}
}

// TestTraceEnabledSteadyPathZeroAllocs extends the discipline to the
// enabled recorder: Record writes into the preallocated ring (head-drop
// on overflow), so even rate-1 tracing adds no steady-state
// allocations — the flight recorder is storage-bounded by design.
func TestTraceEnabledSteadyPathZeroAllocs(t *testing.T) {
	cfg := benchFabricConfig()
	cfg.TraceRate = 1
	cfg.TraceCap = 1 << 12
	ncfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	c.startClients()
	deadline := int64(20e6)
	c.eng.RunUntil(deadline)
	if c.rec.Dropped() == 0 {
		t.Fatal("warmup did not wrap the ring: the guard is not exercising head-drop")
	}
	allocs := testing.AllocsPerRun(50, func() {
		deadline += 100_000
		c.eng.RunUntil(deadline)
	})
	if allocs > 1 {
		t.Errorf("traced steady path allocates %.1f allocs per 100us round, want ~0", allocs)
	}
}

// TestTraceConfigValidation covers the withDefaults surface.
func TestTraceConfigValidation(t *testing.T) {
	cfg := perfTestConfigs()["netclone"]
	cfg.TraceRate = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative TraceRate accepted")
	}
	cfg.TraceRate = 0
	cfg.TraceCap = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative TraceCap accepted")
	}
	cfg.TraceCap = 128
	if _, err := Run(cfg); err == nil {
		t.Error("TraceCap without TraceRate accepted")
	}
}

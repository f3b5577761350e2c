package simcluster

import (
	"testing"

	"netclone/internal/trace"
)

// breakdown runs cfg with the flight recorder tracing every rate-th
// request per client into a ring that overwrites nothing, and reduces
// the capture to its latency breakdown.
func breakdown(t *testing.T, cfg Config, rate int) (Result, trace.Breakdown) {
	t.Helper()
	cfg.TraceRate, cfg.TraceCap = rate, 1<<18
	res := mustRun(t, cfg)
	if res.Trace.Dropped != 0 {
		t.Fatalf("ring overwrote %d records; the breakdown needs whole lifecycles", res.Trace.Dropped)
	}
	return res, res.Trace.Breakdown()
}

func TestBreakdownDisabledByDefault(t *testing.T) {
	res := mustRun(t, fastConfig(NetClone))
	if res.Trace != nil {
		t.Fatal("trace, and so a breakdown, present without tracing enabled")
	}
}

func TestBreakdownSamples(t *testing.T) {
	res, b := breakdown(t, fastConfig(NetClone), 10)
	if b.Sampled == 0 {
		t.Fatal("breakdown sampled nothing")
	}
	// Roughly one in ten requests sampled.
	want := res.Completed / 10
	if b.Sampled < want/2 || b.Sampled > want*2 {
		t.Errorf("sampled %d of %d completed (every 10th)", b.Sampled, res.Completed)
	}
	if b.String() == "" {
		t.Error("breakdown String empty")
	}
}

func TestBreakdownPhasesAreConsistent(t *testing.T) {
	res, b := breakdown(t, fastConfig(NetClone), 5)

	// Service p50 must be on the order of the Exp(25) distribution (the
	// winner of two clones: between min-exp ~12.5us and the single mean).
	if b.Service.P50 < 2_000 || b.Service.P50 > 40_000 {
		t.Errorf("service p50 = %dns, outside plausible Exp(25) clone-winner range", b.Service.P50)
	}
	// Path cost must be at least the fixed network floor and far below
	// the service time at low load.
	if b.Path.P50 < 5_000 {
		t.Errorf("path p50 = %dns, below the physical floor", b.Path.P50)
	}
	// At ~36%% load on 4x4 workers, queueing exists but is not dominant.
	if b.QueueWait.P50 > b.Service.P99 {
		t.Errorf("median queue wait %dns exceeds p99 service %dns at low load",
			b.QueueWait.P50, b.Service.P99)
	}
	// Phases must not exceed the total latency.
	total := res.Latency.P50
	if b.Service.P50 > 3*total {
		t.Errorf("service p50 %d vs total p50 %d: phase accounting broken", b.Service.P50, total)
	}
}

func TestBreakdownCloneWins(t *testing.T) {
	// At very low load everything is cloned; the clone should win a
	// substantial fraction of races (it starts ~0.8us later but its
	// service time is an independent draw).
	cfg := fastConfig(NetClone)
	cfg.OfferedRPS = 50_000
	cfg.DurationNS = 80e6
	_, b := breakdown(t, cfg, 2)
	if b.Sampled < 100 {
		t.Fatalf("too few samples: %d", b.Sampled)
	}
	frac := float64(b.WonByClone) / float64(b.Sampled)
	if frac < 0.25 || frac > 0.60 {
		t.Errorf("clone win fraction %.2f, want roughly fair races (0.25-0.60)", frac)
	}
}

func TestBreakdownWorksForCClone(t *testing.T) {
	_, b := breakdown(t, fastConfig(CClone), 7)
	if b.Sampled == 0 {
		t.Fatal("C-Clone breakdown missing")
	}
	// C-Clone's copies are two plain requests: no switch-made clone.
	if b.WonByClone != 0 {
		t.Errorf("C-Clone clone wins = %d, want 0", b.WonByClone)
	}
}

// TestBreakdownIdleBaselineWaitsOnlyForTheDispatcher runs Baseline at
// 5% load, where a request finds an idle worker: its queue wait is the
// dispatcher cost alone, to within one histogram bucket (1/32 of the
// value's power of two). On a fault-free run every request pays the
// fixed network path, so the Path clamp at 0 never fires.
func TestBreakdownIdleBaselineWaitsOnlyForTheDispatcher(t *testing.T) {
	cfg := fastConfig(Baseline)
	cfg.OfferedRPS = 28_000
	_, b := breakdown(t, cfg, 1)
	if b.Sampled < 1000 {
		t.Fatalf("too few samples: %d", b.Sampled)
	}
	if b.WonByClone != 0 {
		t.Errorf("Baseline clone wins = %d, want 0", b.WonByClone)
	}
	dispatch := DefaultCalibration().DispatcherCostNS
	if d := b.QueueWait.P50 - dispatch; d < -dispatch>>5 || d > dispatch>>5 {
		t.Errorf("queue wait p50 = %dns, want the %dns dispatcher cost", b.QueueWait.P50, dispatch)
	}
	if b.Path.Min <= 0 {
		t.Errorf("path min = %dns: the clamp fired on a fault-free run", b.Path.Min)
	}
}

// TestTraceServerArriveAfterCloneGuard pins where the server-arrive
// record sits: past the stale-clone guard, so a copy the guard drops
// never reads as having reached its server's queue.
func TestTraceServerArriveAfterCloneGuard(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.OfferedRPS = 450_000 // busy enough that the guard fires
	cfg.TraceRate = 1
	res := mustRun(t, cfg)
	type copyKey struct {
		client uint16
		seq    uint32
		server int32
	}
	dropped := map[copyKey]bool{}
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindCloneDrop {
			dropped[copyKey{e.Client, e.Seq, e.Value}] = true
		}
	}
	if len(dropped) == 0 {
		t.Fatal("no clone drops recorded; raise the load")
	}
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindServerArrive && dropped[copyKey{e.Client, e.Seq, e.Value}] {
			t.Fatalf("server %d recorded an arrival for the copy of c%d#%d its guard dropped", e.Value, e.Client, e.Seq)
		}
	}
}

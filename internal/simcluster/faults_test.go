package simcluster

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"netclone/internal/faults"
	"netclone/internal/workload"
)

// faultConfig returns a NetClone base config for fault tests.
func faultConfig() Config {
	return Config{
		Scheme:     NetClone,
		Workers:    []int{8, 8, 8, 8},
		Service:    workload.WithJitter(workload.Exp(25), 0.01),
		OfferedRPS: 4e5,
		DurationNS: 20e6,
		Seed:       3,
	}
}

// TestServerCrashKillsAndRecovers: a mid-run crash drops packets at the
// dead server, loses its queued and in-flight work, and the run keeps
// completing requests after recovery.
func TestServerCrashKillsAndRecovers(t *testing.T) {
	cfg := faultConfig()
	cfg.TimelineBinNS = 2e6
	cfg.Faults = faults.New(faults.ServerCrash(0, 6*time.Millisecond, 10*time.Millisecond))
	res := mustRun(t, cfg)
	f := res.Faults
	if f == nil {
		t.Fatal("no FaultSummary")
	}
	if f.DroppedPackets == 0 {
		t.Error("a 4ms crash dropped no packets")
	}
	if f.ServersDownMax != 1 {
		t.Errorf("ServersDownMax = %d, want 1", f.ServersDownMax)
	}
	if f.Transitions != 2 {
		t.Errorf("Transitions = %d, want 2 (crash + recover)", f.Transitions)
	}
	if res.Completed >= res.Generated {
		t.Error("crash lost no requests")
	}
	// Post-recovery bins complete again at roughly the pre-crash rate.
	rate := res.Timeline.Rate()
	if len(rate) < 10 {
		t.Fatalf("timeline too short: %d bins", len(rate))
	}
	if rate[7] < 0.5*rate[1] {
		t.Errorf("post-recovery rate %.0f never recovered toward pre-crash %.0f", rate[7], rate[1])
	}
}

// TestServerCrashForeverStaysDown: a never-recovering crash removes the
// server's capacity for the rest of the run.
func TestServerCrashForeverStaysDown(t *testing.T) {
	cfg := faultConfig()
	cfg.Faults = faults.New(faults.ServerCrash(0, 5*time.Millisecond, faults.Forever))
	res := mustRun(t, cfg)
	if res.Faults.Transitions != 1 {
		t.Errorf("Transitions = %d, want 1 (no recovery event)", res.Faults.Transitions)
	}
	if res.Faults.DroppedPackets == 0 {
		t.Error("permanently down server dropped nothing")
	}
}

// TestServerSlowdownRaisesDegradedTail: an 8x straggler lifts the
// degraded-window p99 well above the fault-free tail at the same seed.
func TestServerSlowdownRaisesDegradedTail(t *testing.T) {
	base := mustRun(t, faultConfig())
	cfg := faultConfig()
	cfg.Faults = faults.New(faults.ServerSlowdown(0, 5*time.Millisecond, 15*time.Millisecond, 8, time.Millisecond))
	slow := mustRun(t, cfg)
	if slow.Faults.DegradedCompleted == 0 {
		t.Fatal("no completions attributed to the straggler window")
	}
	if got, want := slow.Faults.Degraded.P99, base.Latency.P99; got <= want {
		t.Errorf("degraded p99 %d ns not above fault-free p99 %d ns", got, want)
	}
}

// TestLossRampDecays: a decaying burst loses fewer packets than a
// constant window at the burst's starting probability, and more than
// one at its ending probability.
func TestLossRampDecays(t *testing.T) {
	run := func(startP, endP float64) Result {
		cfg := faultConfig()
		cfg.Faults = faults.New(faults.LossRamp(0, 20*time.Millisecond, startP, endP))
		return mustRun(t, cfg)
	}
	high := run(0.3, 0.3)
	ramp := run(0.3, 0.01)
	low := run(0.01, 0.01)
	if !(low.LostPackets < ramp.LostPackets && ramp.LostPackets < high.LostPackets) {
		t.Errorf("loss ramp not between its endpoints: low %d, ramp %d, high %d",
			low.LostPackets, ramp.LostPackets, high.LostPackets)
	}
}

// TestAdjacentWindowsDeclaredOutOfOrder pins the equal-time transition
// rule: when one window ends exactly where the next begins, the end
// applies first regardless of plan declaration order, so the second
// window stays active instead of being cancelled by its neighbour's
// end transition.
func TestAdjacentWindowsDeclaredOutOfOrder(t *testing.T) {
	// The later loss window is declared first. If its begin ran before
	// the earlier window's end, loss would be off for all of
	// [10ms, 20ms) and the run would lose exactly what the
	// single-window run loses.
	cfg := faultConfig()
	cfg.Faults = faults.New(
		faults.Loss(10*time.Millisecond, 20*time.Millisecond, 0.05),
		faults.Loss(time.Millisecond, 10*time.Millisecond, 0.05),
	)
	both := mustRun(t, cfg)
	single := faultConfig()
	single.Faults = faults.New(faults.Loss(time.Millisecond, 10*time.Millisecond, 0.05))
	res := mustRun(t, single)
	if both.LostPackets <= res.LostPackets || both.Completed >= res.Completed {
		t.Errorf("second adjacent loss window had no effect (lost %d vs %d, completed %d vs %d): its begin was cancelled by the neighbour's end",
			both.LostPackets, res.LostPackets, both.Completed, res.Completed)
	}

	// Back-to-back crashes of the same server, declared out of order:
	// recover-then-crash at the shared instant keeps the down counter
	// sane and the server dead through both windows.
	crash := faultConfig()
	crash.Faults = faults.New(
		faults.ServerCrash(0, 10*time.Millisecond, 14*time.Millisecond),
		faults.ServerCrash(0, 6*time.Millisecond, 10*time.Millisecond),
	)
	cres := mustRun(t, crash)
	if cres.Faults.ServersDownMax != 1 {
		t.Errorf("ServersDownMax = %d, want 1 across adjacent crash windows", cres.Faults.ServersDownMax)
	}
	if cres.Faults.DroppedPackets == 0 {
		t.Error("adjacent crash windows dropped nothing")
	}
}

// TestFaultConfigRejections is the table-driven config-level pass over
// fault-plan validation: out-of-range loss probabilities, inverted or
// negative switch windows and other invalid plans fail Run with
// actionable errors.
func TestFaultConfigRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"loss above one", func(c *Config) { *c = withLoss(*c, 1.5) }, "loss probability"},
		{"loss exactly one", func(c *Config) { *c = withLoss(*c, 1) }, "loss probability"},
		{"loss negative", func(c *Config) { *c = withLoss(*c, -0.01) }, "loss probability"},
		{"switch recovery before failure", func(c *Config) {
			c.Faults = faults.New(faults.SwitchOutage(5*time.Millisecond, 3*time.Millisecond))
		}, "not after failure"},
		{"switch recovery equals failure", func(c *Config) {
			c.Faults = faults.New(faults.SwitchOutage(5*time.Millisecond, 5*time.Millisecond))
		}, "not after failure"},
		{"switch failure without recovery", func(c *Config) {
			c.Faults = faults.New(faults.SwitchOutage(5*time.Millisecond, 0))
		}, "not after failure"},
		{"negative switch window", func(c *Config) {
			c.Faults = faults.New(faults.SwitchOutage(-1, 5*time.Millisecond))
		}, "need >= 0"},
		{"plan target out of range", func(c *Config) {
			c.Faults = faults.New(faults.ServerCrash(9, 0, time.Millisecond))
		}, "servers 0..3"},
		{"plan overlap", func(c *Config) {
			c.Faults = faults.New(
				faults.Loss(0, 10*time.Millisecond, 0.1),
				faults.Loss(5*time.Millisecond, 15*time.Millisecond, 0.2),
			)
		}, "overlap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultConfig()
			tc.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("invalid fault config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// randomValidPlan draws a random valid plan: each injection gets its
// own disjoint time slot, so same-kind overlap can never arise.
func randomValidPlan(rng *rand.Rand, servers int, durNS int64) *faults.Plan {
	n := 1 + rng.IntN(4)
	slot := durNS / int64(n)
	var inj []faults.Injection
	for i := 0; i < n; i++ {
		from := time.Duration(int64(i)*slot + rng.Int64N(slot/4))
		until := from + time.Duration(slot/2+rng.Int64N(slot/4))
		switch rng.IntN(5) {
		case 0:
			inj = append(inj, faults.ServerCrash(rng.IntN(servers), from, until))
		case 1:
			factor := 1.5 + 6*rng.Float64()
			inj = append(inj, faults.ServerSlowdown(rng.IntN(servers), from, until, factor, (until-from)/4))
		case 2:
			inj = append(inj, faults.LossRamp(from, until, rng.Float64()*0.6, rng.Float64()*0.6))
		case 3:
			inj = append(inj, faults.Loss(from, until, rng.Float64()*0.3))
		case 4:
			inj = append(inj, faults.SwitchOutage(from, until))
		}
	}
	return faults.New(inj...)
}

// TestFaultPlanPurity is the fuzz-style determinism pass: for random
// valid plans, the run stays a pure function of (Config, seed) — two
// executions produce deeply equal Results, including the fault summary
// and timeline.
func TestFaultPlanPurity(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for i := 0; i < 12; i++ {
		cfg := faultConfig()
		cfg.DurationNS = 8e6
		cfg.TimelineBinNS = 1e6
		cfg.Seed = uint64(100 + i)
		cfg.Faults = randomValidPlan(rng, len(cfg.Workers), cfg.DurationNS)
		if err := cfg.Faults.Validate(faults.Cluster{Servers: len(cfg.Workers)}); err != nil {
			t.Fatalf("plan %d: generator produced an invalid plan: %v", i, err)
		}
		a := mustRun(t, cfg)
		b := mustRun(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plan %d: run is not a pure function of (Config, seed):\nplan: %+v\na: %+v\nb: %+v",
				i, cfg.Faults.Injections(), a, b)
		}
	}
}

// buildFaulted assembles a warm cluster with every steady-path fault
// mechanism active for the whole run: a straggler and a constant loss
// window.
func buildFaulted(tb testing.TB) *cluster {
	tb.Helper()
	cfg := Config{
		Scheme:     NetClone,
		Workers:    []int{16, 16, 16, 16, 16, 16},
		Service:    workload.Exp(25),
		OfferedRPS: 1e6,
		DurationNS: 1e9, // window far beyond the benchmark's virtual time
		Seed:       1,
		Faults: faults.New(
			faults.ServerSlowdown(0, 0, faults.Forever, 2, 0),
			faults.Loss(0, faults.Forever, 0.001),
		),
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestFaultSteadyPathZeroAllocs guards the subsystem's performance
// contract: with active fault windows (slowdown + loss), the
// per-event steady path allocates nothing — fault state is scalar
// reads, transitions are typed events, and the degraded histogram
// reuses the stats layer's allocation-free Record path.
func TestFaultSteadyPathZeroAllocs(t *testing.T) {
	c := buildFaulted(t)
	c.startClients()
	// Warm up: freelist and histograms reach their high-water marks.
	deadline := int64(20e6)
	c.eng.RunUntil(deadline)
	allocs := testing.AllocsPerRun(50, func() {
		deadline += 100_000 // 100us of virtual time per round
		c.eng.RunUntil(deadline)
	})
	// Tolerate the rare amortized map/slice growth, as the freelist
	// equivalence tests do for the fault-free path, but catch any
	// per-event or per-packet allocation (hundreds per round).
	if allocs > 1 {
		t.Errorf("fault steady path allocates %.1f allocs per 100us round, want ~0", allocs)
	}
}

// BenchmarkClusterSteadyStateFaulted is BenchmarkClusterSteadyState
// with the full steady-path fault set active — the tracked fault-path
// micro-benchmark (README § Benchmarking, CI bench-smoke).
func BenchmarkClusterSteadyStateFaulted(b *testing.B) {
	c := buildFaulted(b)
	c.startClients()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.eng.RunUntil(int64(i+1) * 1000)
	}
}

package simcluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"netclone/internal/congestion"
	"netclone/internal/queueing"
	"netclone/internal/simnet"
)

// congTestSpec is a deliberately tight congestion model: slow edge
// links and a short queue so the perf-test workloads actually drop and
// mark, exercising every congestion code path.
func congTestSpec() *congestion.Spec {
	return congestion.New().WithLinkRate(1).WithQueueCap(16).WithMarkThreshold(4)
}

// ---------------------------------------------------------------------
// M/M/1/K cross-validation: drive one port of a bare congCtl with
// Poisson arrivals and exponential per-packet service, and compare the
// measured drop fraction and time-average occupancy against the closed
// forms in internal/queueing.

// mm1kGen feeds a single congCtl port: each arrival draws an
// exponential service time (the per-entry svc field exists exactly for
// this seam), and departures sink back into the generator: port 0 is a
// server down-port, which hands what leaves it to congCtl.arrive.
type mm1kGen struct {
	eng     *simnet.Engine
	ctl     *congCtl
	hid     int32
	rng     *rand.Rand
	meanArr float64 // mean interarrival, ns
	meanSvc float64 // mean serialization, ns
	endT    int64
	sunk    int64
}

func (g *mm1kGen) OnEvent(uint8, any, int64) {
	svc := int64(g.rng.ExpFloat64()*g.meanSvc) + 1
	g.ctl.enqueue(0, portEntry{svc: svc, chain: -1})
	if next := int64(g.rng.ExpFloat64()*g.meanArr) + 1; g.eng.Now()+next < g.endT {
		g.eng.ScheduleAfter(next, g.hid, 0, nil, 0)
	}
}

// TestCongestionMatchesMM1K holds the port to the closed forms over a
// grid of system sizes K and loads rho, rho = 1 exactly included (where
// queueing takes its limit branch): blocking probability and mean
// occupancy within 5%. Points with P_K under 1e-3 are left out: they
// would need over 2e6·K arrivals (see checkMM1K).
func TestCongestionMatchesMM1K(t *testing.T) {
	const meanSvc = 1000.0 // ns => mu = 1e-3/ns
	for _, k := range []int{2, 5, 10, 20} {
		for _, rho := range []float64{0.5, 0.9, 1.0, 1.5} {
			lambda, mu := rho/meanSvc, 1/meanSvc
			wantPK, err := queueing.MM1KBlockingProb(k, lambda, mu)
			if err != nil {
				t.Fatal(err)
			}
			if wantPK < 1e-3 {
				continue
			}
			wantL, err := queueing.MM1KMeanQueue(k, lambda, mu)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("K%d_rho%g", k, rho), func(t *testing.T) {
				checkMM1K(t, k, meanSvc, rho, wantPK, wantL)
			})
		}
	}
}

// checkMM1K runs one M/M/1/K point until it expects 2e3·K drops, and
// for at least 4e5 arrivals: drops come in runs that lengthen with K,
// and the 5% band needs a few thousand runs.
func checkMM1K(t *testing.T, k int, meanSvc, rho, wantPK, wantL float64) {
	endT := int64(max(4e5, 2e3*float64(k)/wantPK) * meanSvc / rho)
	eng := simnet.NewEngine()
	ctl := &congCtl{
		eng:    eng,
		free:   func(*packet) {},
		cap:    k,
		nRacks: 1,
		ports:  make([]portQueue, 1),
	}
	ctl.ports[0].ring = make([]portEntry, k)
	ctl.hid = ctl.h.register(eng, ctl)
	g := &mm1kGen{
		eng: eng, ctl: ctl,
		rng:     simnet.NewRNG(42, 1),
		meanArr: meanSvc / rho, meanSvc: meanSvc,
		endT: endT,
	}
	g.hid = eng.Register(g)
	ctl.arrive = func(int, *packet, int64) { g.sunk++ }
	eng.ScheduleAfter(1, g.hid, 0, nil, 0)
	eng.RunUntil(endT)

	sum := ctl.summary(endT)
	if len(sum.Ports) != 1 {
		t.Fatalf("want 1 active port, got %d", len(sum.Ports))
	}
	p := sum.Ports[0]
	if resident := int64(ctl.ports[0].depth); p.Drops+g.sunk+resident != p.Arrivals {
		t.Errorf("conservation: %d drops + %d served + %d resident != %d arrivals",
			p.Drops, g.sunk, resident, p.Arrivals)
	}

	gotPK := float64(p.Drops) / float64(p.Arrivals)
	gotL := p.MeanDepth
	if rel := (gotPK - wantPK) / wantPK; rel < -0.05 || rel > 0.05 {
		t.Errorf("blocking prob: simulated %.5f vs M/M/1/%d %.5f (%.1f%% off)",
			gotPK, k, wantPK, rel*100)
	}
	if rel := (gotL - wantL) / wantL; rel < -0.05 || rel > 0.05 {
		t.Errorf("mean occupancy: simulated %.4f vs M/M/1/%d %.4f (%.1f%% off)",
			gotL, k, wantL, rel*100)
	}
	if p.MaxDepth > k {
		t.Errorf("max depth %d exceeds system capacity %d", p.MaxDepth, k)
	}
}

// ---------------------------------------------------------------------
// Whole-cluster behavior.

// TestCongestionIncastSanity runs an incast-shaped load (the whole
// offered rate funneling back through two slow client down-ports) and
// checks the summary's internal consistency: drops and marks happen,
// marks echo to clients through the wire header, rollups add up, and
// tail-drop respects the configured capacity.
func TestCongestionIncastSanity(t *testing.T) {
	cfg := perfTestConfigs()["netclone"]
	cfg.Congestion = congTestSpec()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Congestion
	if cs == nil {
		t.Fatal("Result.Congestion nil with a congestion spec configured")
	}
	if cs.Drops == 0 || cs.Marks == 0 {
		t.Fatalf("overloaded ports produced drops=%d marks=%d, want both > 0", cs.Drops, cs.Marks)
	}
	if cs.MarkedAtClients == 0 {
		t.Error("no marked packet reached a client: ECN echo is broken")
	}
	if cs.MaxDepth > congTestSpec().QueueCap() {
		t.Errorf("max depth %d exceeds queue cap %d", cs.MaxDepth, congTestSpec().QueueCap())
	}
	var portDrops, portMarks, rackDrops int64
	for _, p := range cs.Ports {
		portDrops += p.Drops
		portMarks += p.Marks
		if p.MeanDepth < 0 || float64(p.MaxDepth) < p.MeanDepth {
			t.Errorf("port %s/%d: mean depth %.2f outside [0, max %d]",
				p.Class, p.Index, p.MeanDepth, p.MaxDepth)
		}
	}
	for _, r := range cs.Racks {
		rackDrops += r.Drops
	}
	if portDrops != cs.Drops || rackDrops != cs.Drops {
		t.Errorf("drop rollups disagree: ports %d, racks %d, total %d",
			portDrops, rackDrops, cs.Drops)
	}
	if portMarks != cs.Marks {
		t.Errorf("mark rollups disagree: ports %d vs total %d", portMarks, cs.Marks)
	}
	if res.Completed >= res.Generated {
		t.Errorf("tail-drop lost no requests: completed %d of %d", res.Completed, res.Generated)
	}
}

// TestCongestionReactiveCounters checks that each reactive scheme
// actually exercises its signal under the same overload: Suppress skips
// clones near congested ports, Adaptive runs out of headroom-scaled
// budget.
func TestCongestionReactiveCounters(t *testing.T) {
	base := perfTestConfigs()["netclone"]
	base.Congestion = congTestSpec()

	cfg := base
	cfg.Scheme = NetCloneSuppress
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Congestion.SuppressedClones == 0 {
		t.Error("NetClone+Suppress never suppressed a clone under overload")
	}
	if res.Congestion.BudgetSkips != 0 {
		t.Error("NetClone+Suppress charged the adaptive budget")
	}

	cfg = base
	cfg.Scheme = NetCloneAdaptive
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Congestion.BudgetSkips == 0 {
		t.Error("NetClone+Adaptive never exhausted its clone budget under overload")
	}
	if res.Congestion.SuppressedClones != 0 {
		t.Error("NetClone+Adaptive incremented the suppression counter")
	}
}

// TestReactiveSchemesDegradeToNetClone pins the degradation contract:
// with no congestion model configured, the reactive variants are
// byte-for-byte NetClone (the gate always admits).
func TestReactiveSchemesDegradeToNetClone(t *testing.T) {
	cfg := perfTestConfigs()["netclone"]
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{NetCloneSuppress, NetCloneAdaptive} {
		c := cfg
		c.Scheme = s
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got.Scheme = want.Scheme // only the label may differ
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v with nil congestion differs from NetClone:\ngot:  %+v\nwant: %+v",
				s, got.Latency, want.Latency)
		}
	}
}

// TestCongestionDeterminism: same config, same seed, same summary.
func TestCongestionDeterminism(t *testing.T) {
	cfg := perfTestConfigs()["netclone"]
	cfg.Congestion = congTestSpec()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("congested runs are not deterministic")
	}
}

// ---------------------------------------------------------------------
// Performance contract.

// benchBuildCongested is benchBuildFabric with the congestion model on:
// the three-rack fabric plus finite queues at every modeled egress
// port, with rates low enough that queues actually form (otherwise the
// departure path would never chain through a busy port).
func benchBuildCongested(tb testing.TB) *cluster {
	tb.Helper()
	cfg := benchFabricConfig()
	cfg.Congestion = congestion.New().WithLinkRate(2).WithSpineRate(8)
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

// TestCongestionSteadyPathZeroAllocs guards the subsystem's performance
// contract: enqueue, mark, tail-drop, departure, and the chained
// uplink-to-spine crossing are all ring writes and typed events, so the
// congested steady path allocates nothing (ISSUE 7 acceptance).
func TestCongestionSteadyPathZeroAllocs(t *testing.T) {
	c := benchBuildCongested(t)
	c.startClients()
	// Warm up: freelist, histograms, and queue rings reach steady state.
	deadline := int64(20e6)
	c.eng.RunUntil(deadline)
	if c.cong.summary(c.eng.Now()).Drops == 0 {
		t.Fatal("warmup produced no drops: the guard is not exercising tail-drop")
	}
	allocs := testing.AllocsPerRun(50, func() {
		deadline += 100_000 // 100us of virtual time per round
		c.eng.RunUntil(deadline)
	})
	if allocs > 1 {
		t.Errorf("congested steady path allocates %.1f allocs per 100us round, want ~0", allocs)
	}
}

// BenchmarkClusterSteadyStateCongested is the tracked congested-fabric
// micro-benchmark (README § Benchmarking, CI bench-smoke): whole-cluster
// throughput with finite queues, marking, and tail-drop on every hop.
func BenchmarkClusterSteadyStateCongested(b *testing.B) {
	c := benchBuildCongested(b)
	c.startClients()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.eng.RunUntil(int64(i+1) * 1000)
	}
}

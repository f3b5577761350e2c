package udpemu

import (
	"slices"
	"testing"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/faults"
	"netclone/internal/workload"
)

// runModeCluster drives one open-loop run on a fresh 4-server NetClone
// cluster pinned to the given I/O mode and returns the per-run
// aggregates, the counters once the clone law settled, and the law's
// verdict (settleCloneLaw).
func runModeCluster(t *testing.T, io IOMode, requests int) (OpenLoopResult, ClusterCounters, error) {
	t.Helper()
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{
			FilterTables: 2, FilterSlots: 1 << 10,
			EnableCloning: true, EnableFiltering: true,
		},
		Workers: []int{2, 2, 2, 2},
		Seed:    42,
		IO:      io,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	drops0 := kernelRcvbufErrors()
	runs, err := c.RunOpenLoop(OpenLoopConfig{
		RatePerSec: 4000,
		Requests:   requests,
		Drain:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var agg OpenLoopResult
	for _, r := range runs {
		agg.Sent += r.Sent
		agg.Completed += r.Completed
		agg.CompletedInWindow += r.CompletedInWindow
	}
	law := settleCloneLaw(c.Switch, c.Servers, func() int64 { return c.Counters().Redundant }, drops0)
	return agg, c.Counters(), law
}

// TestBatchedMatchesPortableCounters is the equivalence check the
// tentpole demands: the batched rings and the per-packet reference
// path must agree on every protocol-level invariant — completions,
// server processing, duplicate filtering, send health.
func TestBatchedMatchesPortableCounters(t *testing.T) {
	const requests = 400
	modes := []IOMode{IOPortable}
	if batchSupported {
		modes = append(modes, IOBatch)
	} else {
		t.Log("batch path not compiled in on this platform; portable-only run")
	}
	for _, mode := range modes {
		agg, counters, law := runModeCluster(t, mode, requests)
		if agg.Sent != requests {
			t.Fatalf("%v: sent %d, want %d", mode, agg.Sent, requests)
		}
		// Loopback at a gentle rate: everything completes.
		if agg.Completed < int64(requests)*95/100 {
			t.Errorf("%v: completed %d of %d", mode, agg.Completed, requests)
		}
		if counters.Processed < agg.Completed {
			t.Errorf("%v: processed %d < completed %d", mode, counters.Processed, agg.Completed)
		}
		if law != nil {
			t.Errorf("%v: filtering on: %v", mode, law)
		}
		if counters.SendErrors != 0 {
			t.Errorf("%v: %d send errors on healthy loopback", mode, counters.SendErrors)
		}
		if counters.LossDrops != 0 || counters.CrashDrops != 0 {
			t.Errorf("%v: fault drops (%d loss, %d crash) without a schedule",
				mode, counters.LossDrops, counters.CrashDrops)
		}
	}
}

// TestIOModeResolution pins the knob semantics: IOPortable never
// batches, IOBatch fails where unsupported, IOAuto degrades.
func TestIOModeResolution(t *testing.T) {
	sw, err := NewSwitch("127.0.0.1:0", defaultDcfg(), IOPortable)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if sw.Batched() {
		t.Error("IOPortable switch reports batched")
	}

	auto, err := NewSwitch("127.0.0.1:0", defaultDcfg())
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if auto.Batched() != batchSupported {
		t.Errorf("IOAuto batched=%v, platform support=%v", auto.Batched(), batchSupported)
	}

	forced, err := NewSwitch("127.0.0.1:0", defaultDcfg(), IOBatch)
	if batchSupported {
		if err != nil {
			t.Fatalf("IOBatch on a supported platform: %v", err)
		}
		forced.Close()
	} else if err == nil {
		forced.Close()
		t.Error("IOBatch succeeded on an unsupported platform")
	}
}

// TestParseIOMode covers the flag vocabulary round trip.
func TestParseIOMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IOMode
		ok   bool
	}{
		{"auto", IOAuto, true},
		{"", IOAuto, true},
		{"portable", IOPortable, true},
		{"batch", IOBatch, true},
		{"bogus", IOAuto, false},
	} {
		got, err := ParseIOMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseIOMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() == "" {
			t.Errorf("%v has empty String()", got)
		}
	}
}

// TestMultiRackCluster places every server on a remote rack: the
// WithRacks execution path on real sockets. All traffic crosses the
// emulated fabric twice per round trip, so the injected one-way delay
// is a hard latency floor (sleeps never undershoot).
func TestMultiRackCluster(t *testing.T) {
	const oneWay = 150 * time.Microsecond
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{
			FilterTables: 2, FilterSlots: 1 << 10,
			EnableCloning: true, EnableFiltering: true,
		},
		Racks: []RackSpec{
			{Delay: 0}, // client rack: no local servers
			{Workers: []int{2, 2}, Delay: oneWay},
			{Workers: []int{2, 2}, Delay: 2 * oneWay},
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const requests = 300
	runs, err := c.RunOpenLoop(OpenLoopConfig{
		RatePerSec: 3000,
		Requests:   requests,
		Drain:      400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var completed int64
	for _, r := range runs {
		completed += r.Completed
	}
	if completed < requests*95/100 {
		t.Fatalf("completed %d of %d across the emulated fabric", completed, requests)
	}
	counters := c.Counters()
	if counters.Processed < completed {
		t.Errorf("processed %d < completed %d", counters.Processed, completed)
	}
	for sid, srv := range c.Servers {
		if srv.Processed() == 0 {
			t.Errorf("remote server %d processed nothing", sid)
		}
	}
	// Every round trip = 2 crossings of at least oneWay each, so even
	// the fastest one (a server on the nearer rack) stays above the
	// floor.
	if fastest := time.Duration(c.MergedLatency().Min()); fastest < 2*oneWay {
		t.Errorf("fastest round trip %v below the 2x one-way delay floor %v", fastest, 2*oneWay)
	}
}

// fabricSlack bounds what a round trip across the emulated fabric may
// add beyond its injected delay: two delay-line hand-offs and two timer
// wake-ups. On a 2-vCPU Linux host the runtime timer rounds a short
// sleep up to about a millisecond, so a delay line that waits on it
// overshoots this bound at every delay.
const fabricSlack = 400 * time.Microsecond

// TestFabricDelayAccuracy pins the emulated fabric delay from both
// sides: with one remote rack at one-way delay d, the switch's rack line
// and the servers' uplink lines add at least 2d to the closed-loop p50
// round trip (a wait never undershoots) and at most 2d + fabricSlack.
// The clusters take turns request by request, so host load weighs on
// each the same. Under the race detector a round trip adds less than
// 2d (0-6 us for d = 20 us): the instrumented hops' cost overlaps the
// lines' waits. The test skips itself there.
func TestFabricDelayAccuracy(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector distorts the round trips too much to judge the delay lines")
	}
	delays := []time.Duration{0, 20 * time.Microsecond, 150 * time.Microsecond}
	clusters := make([]*Cluster, len(delays))
	for k, d := range delays {
		c, err := StartCluster(ClusterConfig{
			Dataplane: dataplane.Config{FilterTables: 2, FilterSlots: 1 << 10, EnableFiltering: true},
			Racks: []RackSpec{
				{},                               // client rack: no local servers
				{Workers: []int{2, 2}, Delay: d}, // remote when d > 0
			},
			Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clusters[k] = c
	}
	const warmup, requests = 20, 300
	rtts := make([][]time.Duration, len(delays))
	for i := range warmup + requests {
		for k, c := range clusters {
			start := time.Now()
			if _, err := c.Clients[0].Do(c.Switch.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
				t.Fatal(err)
			}
			if i >= warmup {
				rtts[k] = append(rtts[k], time.Since(start))
			}
		}
	}
	p50 := make([]time.Duration, len(delays))
	for k, r := range rtts {
		slices.Sort(r)
		p50[k] = r[len(r)/2]
	}
	for k, d := range delays[1:] {
		got := p50[k+1]
		t.Logf("one-way delay %v: p50 round trip %v (%v without delay), adds %v", d, got, p50[0], got-p50[0])
		if added := got - p50[0]; added < 2*d || added > 2*d+fabricSlack {
			t.Errorf("one-way delay %v: p50 round trip %v against %v without delay adds %v, want %v to %v",
				d, got, p50[0], added, 2*d, 2*d+fabricSlack)
		}
	}
}

// TestFaultLossWindow pins the loss gate: a certain-loss window across
// the whole run means (almost) nothing completes and the drops are
// accounted.
func TestFaultLossWindow(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{FilterTables: 2, FilterSlots: 1 << 10},
		Workers:   []int{2, 2},
		Seed:      3,
		Faults: &FaultSchedule{
			Loss: []LossWindow{{From: 0, Until: faults.Forever, StartProb: 0.999, EndProb: 0.999}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runs, err := c.RunOpenLoop(OpenLoopConfig{
		RatePerSec: 2000, Requests: 200, Drain: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var completed int64
	for _, r := range runs {
		completed += r.Completed
	}
	counters := c.Counters()
	if counters.LossDrops == 0 {
		t.Fatal("loss window active but LossDrops == 0")
	}
	if completed > 20 {
		t.Errorf("completed %d of 200 under 99.9%% loss", completed)
	}
}

// TestFaultCrashRecover pins crash/recover: with one of two servers
// down for the whole window on a Baseline switch, roughly half the
// requests die at the crashed server and the drops are accounted.
func TestFaultCrashRecover(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{FilterTables: 2, FilterSlots: 1 << 10},
		Workers:   []int{2, 2},
		Seed:      5,
		Timeout:   500 * time.Millisecond,
		Faults: &FaultSchedule{
			Crashes: []CrashWindow{{Target: 0, From: 0, Until: faults.Forever}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const requests = 200
	runs, err := c.RunOpenLoop(OpenLoopConfig{
		RatePerSec: 2000, Requests: requests, Drain: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var completed int64
	for _, r := range runs {
		completed += r.Completed
	}
	counters := c.Counters()
	if counters.CrashDrops == 0 {
		t.Fatal("crash window active but CrashDrops == 0")
	}
	if c.Servers[0].Processed() != 0 {
		t.Errorf("crashed server processed %d requests", c.Servers[0].Processed())
	}
	if completed == 0 || completed >= requests {
		t.Errorf("completed %d of %d with one of two servers down", completed, requests)
	}
}

// TestArmFaultsDownsAtOnce pins that a crash window from 0 is in force
// when armFaults returns, before RunOpenLoop starts the clients, while a
// later window waits for its time.
func TestArmFaultsDownsAtOnce(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{FilterTables: 2, FilterSlots: 1 << 10},
		Workers:   []int{2, 2},
		Faults: &FaultSchedule{Crashes: []CrashWindow{
			{Target: 0, From: 0, Until: time.Hour},
			{Target: 1, From: time.Hour, Until: faults.Forever},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.armFaults(time.Now())
	if !c.Servers[0].down.Load() {
		t.Error("server 0 is up when armFaults returns, inside its crash window from 0")
	}
	if c.Servers[1].down.Load() {
		t.Error("server 1 is down an hour before its crash window")
	}
}

// TestOpenLoopDuplicateBatch drives the C-Clone duplicate path through
// the batched sender, which interleaves two ring commits per request.
func TestOpenLoopDuplicateBatch(t *testing.T) {
	if !batchSupported {
		t.Skip("batch path not compiled in")
	}
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{FilterTables: 2, FilterSlots: 1 << 10},
		Workers:   []int{2, 2, 2},
		Seed:      11,
		IO:        IOBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runs, err := c.RunOpenLoop(OpenLoopConfig{
		RatePerSec: 2000, Requests: 200, Duplicate: true,
		Drain: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var completed int64
	for _, r := range runs {
		completed += r.Completed
	}
	if completed < 190 {
		t.Fatalf("completed %d of 200 duplicated requests", completed)
	}
	if red := c.Counters().Redundant; red == 0 {
		t.Error("C-Clone duplicates on a non-filtering switch should yield redundant responses")
	}
}

package udpemu

import (
	"slices"
	"testing"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/simnet"
	"netclone/internal/workload"
)

func TestOpenLoopRun(t *testing.T) {
	tc := startCluster(t, 3, defaultDcfg())
	res, err := tc.client.RunOpenLoop(OpenLoopConfig{
		NumGroups:  tc.sw.NumGroups(),
		RatePerSec: 5000,
		Requests:   500,
		Keyspace:   100,
		Drain:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 500 {
		t.Fatalf("sent %d, want 500", res.Sent)
	}
	// Loopback with idle servers: essentially everything completes.
	if res.Completed < 490 {
		t.Errorf("completed %d of 500", res.Completed)
	}
	if res.AchievedRPS < 3500 || res.AchievedRPS > 6500 {
		t.Errorf("achieved %.0f RPS, target 5000", res.AchievedRPS)
	}
	if tc.client.Latency().Count < 490 {
		t.Errorf("histogram has %d samples", tc.client.Latency().Count)
	}
}

func TestOpenLoopWithMix(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	mix := workload.NewKVMix(0.95, 0.05, 1000, 0.99)
	res, err := tc.client.RunOpenLoop(OpenLoopConfig{
		NumGroups:  tc.sw.NumGroups(),
		RatePerSec: 3000,
		Requests:   300,
		Mix:        mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 280 {
		t.Errorf("completed %d of 300", res.Completed)
	}
}

// TestCClonePairDistinctServers pins the C-Clone duplicate contract:
// the two copies of a request must target groups whose first forwarding
// candidates are different servers, as the simulator's C-Clone client
// guarantees.
func TestCClonePairDistinctServers(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		numGroups := n * (n - 1)
		if got := serversForGroups(numGroups); got != n {
			t.Fatalf("serversForGroups(%d) = %d, want %d", numGroups, got, n)
		}
		rng := simnet.NewRNG(1, uint64(n))
		for trial := 0; trial < 500; trial++ {
			pair := cclonePair(rng, numGroups)
			if len(pair) != 2 {
				t.Fatalf("n=%d: pair = %v", n, pair)
			}
			for _, g := range pair {
				if g < 0 || g >= numGroups {
					t.Fatalf("n=%d: group %d out of range [0,%d)", n, g, numGroups)
				}
			}
			if pair[0]/(n-1) == pair[1]/(n-1) {
				t.Fatalf("n=%d: groups %v share first candidate %d", n, pair, pair[0]/(n-1))
			}
		}
	}
	// Not an ordered-pair count: falls back to independent in-range draws.
	rng := simnet.NewRNG(1, 99)
	for trial := 0; trial < 100; trial++ {
		for _, g := range cclonePair(rng, 5) {
			if g < 0 || g >= 5 {
				t.Fatalf("fallback group %d out of range", g)
			}
		}
	}
}

func TestOpenLoopValidation(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	if _, err := tc.client.RunOpenLoop(OpenLoopConfig{NumGroups: 2, RatePerSec: 0, Requests: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := tc.client.RunOpenLoop(OpenLoopConfig{NumGroups: 2, RatePerSec: 100, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestOpenLoopBackToBackRuns(t *testing.T) {
	// State (openPending, counters) must reset between runs.
	tc := startCluster(t, 2, defaultDcfg())
	for i := 0; i < 2; i++ {
		res, err := tc.client.RunOpenLoop(OpenLoopConfig{
			NumGroups:  tc.sw.NumGroups(),
			RatePerSec: 4000,
			Requests:   200,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed < 190 || res.Completed > 200 {
			t.Errorf("run %d: completed %d of 200", i, res.Completed)
		}
	}
}

func TestOpenLoopMixedWithClosedLoop(t *testing.T) {
	// Closed-loop Do still works after an open-loop run.
	tc := startCluster(t, 2, defaultDcfg())
	if _, err := tc.client.RunOpenLoop(OpenLoopConfig{
		NumGroups: tc.sw.NumGroups(), RatePerSec: 4000, Requests: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// raceDetector is set under the race detector (race_test.go).
var raceDetector bool

// TestOpenLoopPacesOnTime holds the open-loop client's latency near the
// closed loop's on one 2x2 cluster: at 16,000 requests a second the
// open-loop p50 stays below 3x the p50 of back-to-back Do round trips.
// A pacer that waits on the runtime timer wakes about a millisecond
// late, sends the requests it owes in a burst, and reads 3.6-4.2x on a
// 2-vCPU Linux host; the pacer's own thread and nanosleep read 1.4-2x.
// The two loops take turns in short chunks, so that a spell of load
// from other processes on the host weighs on both samples alike.
func TestOpenLoopPacesOnTime(t *testing.T) {
	if raceDetector {
		t.Skip("latency ratio is meaningless under the race detector")
	}
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{FilterTables: 2, FilterSlots: 1 << 10, EnableCloning: true, EnableFiltering: true},
		Workers:   []int{2, 2},
		Clients:   2,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	groups := c.Switch.NumGroups()
	var rtts []time.Duration
	doLoop := func(requests int) {
		for i := range requests {
			start := time.Now()
			if _, err := c.Clients[0].Do(groups, workload.OpGet, uint64(i), 0, nil); err != nil {
				t.Fatal(err)
			}
			rtts = append(rtts, time.Since(start))
		}
	}
	doLoop(20) // warm-up
	rtts = rtts[:0]
	open := c.Clients[1]
	const rounds = 8
	for range rounds {
		doLoop(75)
		if _, err := open.RunOpenLoop(OpenLoopConfig{
			NumGroups: groups, RatePerSec: 16_000, Requests: 500, Drain: 20 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	doLoop(75)
	slices.Sort(rtts)
	closed := rtts[len(rtts)/2]
	p50 := time.Duration(open.Hist().P50())
	t.Logf("open-loop p50 %v at 16k req/s, closed-loop p50 %v (%.1fx)", p50, closed, float64(p50)/float64(closed))
	if p50 >= 3*closed {
		t.Errorf("open-loop p50 %v at 16k req/s is %.1fx the closed-loop p50 %v, want below 3x",
			p50, float64(p50)/float64(closed), closed)
	}
}

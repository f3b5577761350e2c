package udpemu

import (
	"testing"
	"time"

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

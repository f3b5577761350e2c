package main

import (
	"testing"
	"time"
)

// A slice measured while the host ran the reference at 0.8 of the
// nominal rate is reported as if it had taken 0.8 of its host time.
func TestThroughputIsInReferenceSeconds(t *testing.T) {
	slow := sliceStat{
		wall: 2 * time.Second, cpu: 2 * time.Second, requests: 1_000_000,
		refWall: time.Second, refOps: int64(0.8 * refNominalOpsPerSec),
	}
	if got := slow.speed(); !near(got, 0.8) {
		t.Fatalf("speed = %v, want 0.8", got)
	}
	rps, cpuUS := throughput([]sliceStat{slow})
	if !near(rps[0], 1_000_000/(2*0.8)) || !near(cpuUS[0], 2*0.8) {
		t.Errorf("normalised: %v req/s, %v us/req; want 625000, 1.6", rps[0], cpuUS[0])
	}
	hostRPS, hostCPU, speed := hostTime([]sliceStat{slow})
	if !near(hostRPS[0], 500_000) || !near(hostCPU[0], 2) || !near(speed[0], 0.8) {
		t.Errorf("host time: %v req/s, %v us/req at speed %v; want 500000, 2, 0.8", hostRPS[0], hostCPU[0], speed[0])
	}

	// No reference (the layer run): host seconds, unchanged.
	bare := sliceStat{wall: 2 * time.Second, cpu: time.Second, requests: 1_000_000}
	rps, cpuUS = throughput([]sliceStat{bare})
	if bare.speed() != 1 || !near(rps[0], 500_000) || !near(cpuUS[0], 1) {
		t.Errorf("without a reference: speed %v, %v req/s, %v us/req", bare.speed(), rps[0], cpuUS[0])
	}
}

// The reference's own time is taken out of what it times, and a nil
// reference times in host seconds.
func TestTimedTakesTheReferenceOut(t *testing.T) {
	const nap = 30 * time.Millisecond
	h := newHostRef()
	refS, hostS, err := h.timed(func() error {
		time.Sleep(nap)
		h.run() // a tick inside the timed work
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three reference calls of several milliseconds each ran inside the
	// timed interval; none of them may be charged to the work.
	if hostS < nap.Seconds() || hostS > nap.Seconds()+0.010 {
		t.Errorf("host time %v s for a %v nap: the reference was not taken out", hostS, nap)
	}
	if refS <= 0 {
		t.Errorf("reference time %v s", refS)
	}
	if wall, _, ops := h.take(); wall != 0 || ops != 0 {
		t.Errorf("timed left %v, %d ops in the account", wall, ops)
	}

	var none *hostRef
	none.tick()
	refS, hostS, _ = none.timed(func() error { time.Sleep(time.Millisecond); return nil })
	if refS != hostS || hostS < 0.001 {
		t.Errorf("nil reference: %v reference s, %v host s", refS, hostS)
	}
}

// The reference does the same work on every call: same state after the
// same number of operations.
func TestReferenceWorkIsFixed(t *testing.T) {
	a, b := newRefState(), newRefState()
	a.work(3000)
	b.work(1000)
	b.work(2000)
	if a.x != b.x || a.acc != b.acc || len(a.heap) != 256 || len(b.heap) != 256 {
		t.Errorf("reference state diverged: %x/%x, %v/%v, heaps %d/%d", a.x, b.x, a.acc, b.acc, len(a.heap), len(b.heap))
	}
}

package udpemu

import (
	"testing"
	"time"

	"netclone/internal/workload"
)

// TestLamportModeOverUDP runs the §3.7 TCP-mode configuration end to
// end: client-generated request identifiers, with cloning and filtering
// still exact.
func TestLamportModeOverUDP(t *testing.T) {
	dcfg := defaultDcfg()
	dcfg.ClientGeneratedIDs = true
	tc := startCluster(t, 2, dcfg)
	drops0 := kernelRcvbufErrors()
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := tc.sw.Stats()
	if st.Cloned < n/2 {
		t.Errorf("cloned %d of %d (idle cluster should clone most)", st.Cloned, n)
	}
	if err := settleCloneLaw(tc.sw, tc.servers, tc.client.Redundant, drops0); err != nil {
		t.Errorf("Lamport mode: %v", err)
	}
	// The sequencer must be untouched in TCP mode: a retransmission-safe
	// deployment never consumes switch sequence numbers.
	if st.SeqWraps != 0 {
		t.Error("sequencer wrapped in Lamport mode")
	}
}

// TestRackSchedOverUDP exercises the JSQ fallback over real sockets: a
// deliberately slow first server forces non-idle states, and requests
// must flow to the faster candidate instead of piling on the slow one.
func TestRackSchedOverUDP(t *testing.T) {
	dcfg := defaultDcfg()
	dcfg.RackSched = true
	sw, err := NewSwitch("127.0.0.1:0", dcfg)
	if err != nil {
		t.Fatal(err)
	}
	go sw.Serve() //nolint:errcheck
	defer sw.Close()

	slow, err := NewServer("127.0.0.1:0", sw.Addr(), ServerConfig{
		SID: 0, Workers: 1, ExtraServiceTime: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go slow.Serve() //nolint:errcheck
	defer slow.Close()
	fast, err := NewServer("127.0.0.1:0", sw.Addr(), ServerConfig{
		SID: 1, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	go fast.Serve() //nolint:errcheck
	defer fast.Close()
	if err := sw.AddServer(0, slow.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddServer(1, fast.Addr()); err != nil {
		t.Fatal(err)
	}

	cl, err := NewClient(sw.Addr(), ClientConfig{ClientID: 1, Seed: 3, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Open loop so requests overlap and queue states become non-zero.
	res, err := cl.RunOpenLoop(OpenLoopConfig{
		NumGroups:  sw.NumGroups(),
		RatePerSec: 2000,
		Requests:   400,
		Drain:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 350 {
		t.Fatalf("completed %d of 400", res.Completed)
	}
	if sw.Stats().JSQFallback == 0 {
		t.Error("RackSched fallback never triggered despite a saturated slow server")
	}
	// The fast server must have served clearly more than the slow one.
	if fast.Processed() <= slow.Processed() {
		t.Errorf("fast served %d <= slow %d: JSQ not steering load", fast.Processed(), slow.Processed())
	}
}

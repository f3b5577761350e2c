package udpemu

import (
	"sync"
	"testing"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/kvstore"
	"netclone/internal/workload"
)

// testCluster spins up a loopback switch, n servers, and one client.
type testCluster struct {
	sw      *Switch
	servers []*Server
	client  *Client
	store   *kvstore.Store
}

func startCluster(t *testing.T, n int, dcfg dataplane.Config) *testCluster {
	t.Helper()
	sw, err := NewSwitch("127.0.0.1:0", dcfg)
	if err != nil {
		t.Fatal(err)
	}
	go sw.Serve() //nolint:errcheck // terminated by Close
	t.Cleanup(func() { sw.Close() })

	store := kvstore.NewStore(4096)
	tc := &testCluster{sw: sw, store: store}
	for sid := 0; sid < n; sid++ {
		srv, err := NewServer("127.0.0.1:0", sw.Addr(), ServerConfig{
			SID: uint16(sid), Workers: 2, Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck
		t.Cleanup(func() { srv.Close() })
		if err := sw.AddServer(uint16(sid), srv.Addr()); err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, srv)
	}
	cl, err := NewClient(sw.Addr(), ClientConfig{ClientID: 1, Seed: 7, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	tc.client = cl
	return tc
}

func defaultDcfg() dataplane.Config {
	return dataplane.Config{
		MaxServers:      8,
		FilterTables:    2,
		FilterSlots:     1 << 10,
		EnableCloning:   true,
		EnableFiltering: true,
	}
}

func TestGetRoundTrip(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	val, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, 42, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(val) != kvstore.ValueSize {
		t.Fatalf("GET returned %d bytes, want %d", len(val), kvstore.ValueSize)
	}
	var want [kvstore.ValueSize]byte
	tc.store.Get(42, want[:])
	for i := range val {
		if val[i] != want[i] {
			t.Fatalf("GET value mismatch at byte %d", i)
		}
	}
}

func TestSetThenGet(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpSet, 7, 0, []byte("updated!")); err != nil {
		t.Fatal(err)
	}
	val, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, 7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(val[:8]) != "updated!" {
		t.Fatalf("GET after SET = %q", val[:8])
	}
}

func TestScan(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	val, err := tc.client.Do(tc.sw.NumGroups(), workload.OpScan, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(val) != 8 {
		t.Fatalf("SCAN response %d bytes, want 8 (checksum)", len(val))
	}
}

func TestManyRequestsNoDuplicatesWithFiltering(t *testing.T) {
	tc := startCluster(t, 3, defaultDcfg())
	drops0 := kernelRcvbufErrors()
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, uint64(i%100), 0, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Closed-loop client with idle servers: every request should have
	// been cloned, and every slower twin is filtered unless a counted
	// filter overwrite let it through.
	st := tc.sw.Stats()
	if st.Cloned < n/2 {
		t.Errorf("cloned %d of %d requests, expected most (idle cluster)", st.Cloned, n)
	}
	if err := settleCloneLaw(tc.sw, tc.servers, tc.client.Redundant, drops0); err != nil {
		t.Errorf("filtering on: %v", err)
	}
	if st.FilterDrops == 0 {
		t.Error("switch filtered nothing despite cloning")
	}
	if tc.client.Latency().Count != n {
		t.Errorf("latency histogram has %d samples, want %d", tc.client.Latency().Count, n)
	}
}

func TestDuplicatesArriveWithoutFiltering(t *testing.T) {
	dcfg := defaultDcfg()
	dcfg.EnableFiltering = false
	tc := startCluster(t, 2, dcfg)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// The slower twins trail the responses Do returned with: wait for
	// the first, up to a second.
	for deadline := time.Now().Add(time.Second); tc.client.Redundant() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if r := tc.client.Redundant(); r == 0 {
		t.Error("filtering disabled but the client saw no redundant responses")
	}
}

func TestServerRemovalFailover(t *testing.T) {
	tc := startCluster(t, 3, defaultDcfg())
	// Stop server 2 and remove it from the switch control plane (§3.6).
	tc.servers[2].Close()
	tc.sw.RemoveServer(2)
	for i := 0; i < 100; i++ {
		if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
			t.Fatalf("request %d after removal: %v", i, err)
		}
	}
	if tc.servers[2].Processed() != 0 {
		t.Error("removed server still received requests")
	}
}

func TestConcurrentClients(t *testing.T) {
	tc := startCluster(t, 3, defaultDcfg())
	var extra []*Client
	for id := uint16(2); id <= 4; id++ {
		cl, err := NewClient(tc.sw.Addr(), ClientConfig{ClientID: id, Seed: uint64(id), Timeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		extra = append(extra, cl)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(extra)*100)
	for _, cl := range extra {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := cl.Do(tc.sw.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
					errs <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, cl := range extra {
		if cl.Latency().Count != 100 {
			t.Errorf("client completed %d of 100", cl.Latency().Count)
		}
	}
}

func TestCloneDropGuardUnderBurst(t *testing.T) {
	// One slow server pair and a burst of concurrent requests: some
	// clones must be dropped by the busy guard rather than queued.
	dcfg := defaultDcfg()
	sw, err := NewSwitch("127.0.0.1:0", dcfg)
	if err != nil {
		t.Fatal(err)
	}
	go sw.Serve() //nolint:errcheck
	defer sw.Close()

	var servers []*Server
	for sid := uint16(0); sid < 2; sid++ {
		srv, err := NewServer("127.0.0.1:0", sw.Addr(), ServerConfig{
			SID: sid, Workers: 1, ExtraServiceTime: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck
		defer srv.Close()
		if err := sw.AddServer(sid, srv.Addr()); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		cl, err := NewClient(sw.Addr(), ClientConfig{ClientID: uint16(10 + w), Seed: uint64(w), Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, _ = cl.Do(sw.NumGroups(), workload.OpGet, uint64(i), 0, nil)
			}
		}(cl)
	}
	wg.Wait()
	drops := servers[0].CloneDrops() + servers[1].CloneDrops()
	if drops == 0 {
		t.Log("no clone drops observed (timing-dependent); acceptable but unusual under this burst")
	}
}

func TestSwitchStringer(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	if tc.sw.String() == "" {
		t.Error("switch String() empty")
	}
}

// TestClientAddressRelearned pins the switch's client-address learning:
// when a client ID reappears from a new socket, responses follow it
// there instead of going to the address first learned.
func TestClientAddressRelearned(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	tc.client.Close()
	moved, err := NewClient(tc.sw.Addr(), ClientConfig{ClientID: 1, Seed: 8, Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()
	if _, err := moved.Do(tc.sw.NumGroups(), workload.OpGet, 2, 0, nil); err != nil {
		t.Fatalf("client ID 1 from a new socket: %v", err)
	}
}

// TestSwitchCountsGroupWraps: a client told the wrong group count (6
// for a 2-server switch, which has 2 groups) sends groups past the
// switch's count, and the switch counts them; a client told the right
// count leaves the count at 0.
func TestSwitchCountsGroupWraps(t *testing.T) {
	tc := startCluster(t, 2, defaultDcfg())
	for i := range 50 {
		if _, err := tc.client.Do(tc.sw.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := tc.sw.GroupWraps(); n != 0 {
		t.Fatalf("correct client: GroupWraps = %d, want 0", n)
	}
	for i := range 50 {
		if _, err := tc.client.Do(6, workload.OpGet, uint64(i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := tc.sw.GroupWraps(); n == 0 {
		t.Fatal("client sending 6 groups to a 2-group switch: GroupWraps = 0, want > 0")
	}
}

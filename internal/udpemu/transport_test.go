package udpemu

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// memTransport is a loss-free in-process transport: recv hands out the
// bursts sent on in, one per call, and flush copies what the write ring
// held onto out (when set) as one burst. Its write ring holds size
// datagrams in preallocated slots, so commit and a flush without out
// allocate nothing. It also stands in for the socket a delay line
// writes to: each datagram the line sends is a burst of one on out.
type memTransport struct {
	in  chan []memDatagram
	cur []memDatagram

	size    int // write-ring capacity, 1..ioBurst
	bufs    [ioBurst][maxDatagram]byte
	ring    [ioBurst]memDatagram
	wn      int
	out     chan []memDatagram
	flushes atomic.Int64 // flushes that carried datagrams
	// fail, when set, decides whether flush number n (counting from 1)
	// drops its datagrams.
	fail func(n int64) bool
}

type memDatagram struct {
	b    []byte
	addr netip.AddrPort
	at   time.Time // when it left; set on the way out
}

var errMemFlush = errors.New("memTransport: injected flush failure")

// newMemTransport makes in unbuffered, so deliver returns only once a
// receive loop took the burst. out is buffered so that a node's flush
// does not wait for a test that reads the flushed bursts only after the
// node is done; 64 is more than such a test flushes.
func newMemTransport(size int) *memTransport {
	return &memTransport{in: make(chan []memDatagram), size: size, out: make(chan []memDatagram, 64)}
}

func (m *memTransport) recv() (int, error) {
	burst, ok := <-m.in
	if !ok {
		return 0, net.ErrClosed
	}
	m.cur = burst
	return len(burst), nil
}

func (m *memTransport) pkt(i int) []byte         { return m.cur[i].b }
func (m *memTransport) src(i int) netip.AddrPort { return m.cur[i].addr }
func (m *memTransport) wslot() []byte            { return m.bufs[m.wn][:0] }

func (m *memTransport) commit(n int, to netip.AddrPort) (int, error) {
	m.ring[m.wn] = memDatagram{b: m.bufs[m.wn][:n], addr: to}
	m.wn++
	if m.wn == m.size {
		return m.flush()
	}
	return 0, nil
}

func (m *memTransport) flush() (int, error) {
	n := m.wn
	if n == 0 {
		return 0, nil
	}
	m.wn = 0
	if k := m.flushes.Add(1); m.fail != nil && m.fail(k) {
		return n, errMemFlush
	}
	if m.out != nil {
		burst := make([]memDatagram, n)
		at := time.Now()
		for i, d := range m.ring[:n] {
			burst[i] = memDatagram{b: append([]byte(nil), d.b...), addr: d.addr, at: at}
		}
		m.out <- burst
	}
	return 0, nil
}

// WriteToUDPAddrPort is the delay line's send (datagramWriter).
func (m *memTransport) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	m.out <- []memDatagram{{b: append([]byte(nil), b...), addr: to, at: time.Now()}}
	return len(b), nil
}

// deliver hands burst to the node's receive loop and returns once the
// loop has taken it. Delivering a second burst therefore returns only
// after the node finished the first one.
func (m *memTransport) deliver(burst ...memDatagram) { m.in <- burst }

var (
	memClientAddr = netip.MustParseAddrPort("10.0.0.1:5000")
	memSwitchAddr = netip.MustParseAddrPort("10.0.0.254:9000")
	memServerAddr = [2]netip.AddrPort{
		netip.MustParseAddrPort("10.0.1.1:7000"),
		netip.MustParseAddrPort("10.0.1.2:7000"),
	}
)

// newMemSwitch returns a switch on a memTransport with two servers
// installed at memServerAddr. Nothing serves it yet.
func newMemSwitch(t *testing.T, cfg dataplane.Config, size int) (*Switch, *memTransport) {
	t.Helper()
	sw, err := NewSwitch("127.0.0.1:0", cfg, IOPortable)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	for sid, ap := range memServerAddr {
		if err := sw.AddServer(uint16(sid), net.UDPAddrFromAddrPort(ap)); err != nil {
			t.Fatal(err)
		}
	}
	m := newMemTransport(size)
	sw.tr = m
	return sw, m
}

// serveMem runs sw.Serve on its memTransport until the test ends.
func serveMem(t *testing.T, sw *Switch, m *memTransport) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw.Serve() //nolint:errcheck // ended by closing the transport
	}()
	t.Cleanup(func() {
		close(m.in)
		<-done
	})
}

// newMemServer returns a server on a memTransport, serving until the
// test ends. Its responses leave through the transport's out channel,
// the held ones too.
func newMemServer(t *testing.T, cfg ServerConfig) (*Server, *memTransport) {
	t.Helper()
	cfg.IO = IOPortable
	srv, err := NewServer("127.0.0.1:0", net.UDPAddrFromAddrPort(memSwitchAddr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := newMemTransport(ioBurst)
	srv.tr = m
	if srv.svc != nil {
		srv.svc.conn = m
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve() //nolint:errcheck // ended by closing the transport
	}()
	t.Cleanup(func() {
		close(m.in)
		<-done
		srv.Close()
	})
	return srv, m
}

func encode(h wire.Header, payload []byte) []byte {
	return append(h.AppendTo(nil), payload...)
}

func request(seq uint32, group uint16) []byte {
	h := wire.Header{Type: wire.TypeReq, Group: group, ClientID: 1, ClientSeq: seq, PktTotal: 1}
	return encode(h, wire.AppendOp(nil, uint8(workload.OpGet), uint64(seq), 0, nil))
}

// response is what a server answers to a forwarded request header.
func response(req wire.Header, sid uint16) []byte {
	req.Type, req.SID, req.State = wire.TypeResp, sid, 0
	return encode(req, nil)
}

// TestSwitchHandleAllocsNothing is the allocation guard of the switch's
// one handler: a plain request, a clone pair and a response each cost
// zero allocations per packet.
func TestSwitchHandleAllocsNothing(t *testing.T) {
	noClone := defaultDcfg()
	noClone.EnableCloning = false
	for _, tc := range []struct {
		name  string
		cfg   dataplane.Config
		pkt   []byte
		emits int
	}{
		{"request", noClone, request(1, 0), 1},
		{"clone pair", defaultDcfg(), request(1, 0), 2},
		{"response", defaultDcfg(), response(wire.Header{Type: wire.TypeReq, ClientID: 1, ClientSeq: 1}, 0), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, m := newMemSwitch(t, tc.cfg, ioBurst)
			m.out = nil
			// The client is learned once, as a real client's first
			// request does.
			sw.clients[1] = sendTarget{to: memClientAddr}
			m.cur = []memDatagram{{b: tc.pkt, addr: memClientAddr}}
			now := time.Now()
			handle := func() {
				sw.mu.Lock()
				sw.handle(0, now)
				sw.mu.Unlock()
				if m.wn != tc.emits {
					t.Fatalf("handler queued %d datagrams, want %d", m.wn, tc.emits)
				}
				m.flush() //nolint:errcheck // no failure injected
			}
			if allocs := testing.AllocsPerRun(200, handle); allocs != 0 {
				t.Errorf("%v allocations per packet, want 0", allocs)
			}
		})
	}
}

// TestSwitchOneFlushPerBurst pins the switch's per-burst shape: 32
// datagrams taken by one recv leave in one flush, and every forwarded
// header is what dataplane.Process yields applied directly. The burst
// holds eight requests, each cloned and each followed by a datagram
// that is not NetClone's, then both responses of each request: the
// first is forwarded and the slower twin filtered. So 24 datagrams
// leave — fewer than a ring, so only the end-of-burst flush sends them.
func TestSwitchOneFlushPerBurst(t *testing.T) {
	cfg := defaultDcfg()
	sw, m := newMemSwitch(t, cfg, ioBurst)
	ref, err := dataplane.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.InstallServers([]dataplane.ServerEntry{
		{SID: 0, Addr: uint32(memServerAddr[0].Port())},
		{SID: 1, Addr: uint32(memServerAddr[1].Port())},
	}); err != nil {
		t.Fatal(err)
	}

	type fwd struct {
		h  wire.Header
		to netip.AddrPort
	}
	var burst []memDatagram
	var want []fwd
	var resps []memDatagram
	for seq := uint32(1); seq <= 8; seq++ {
		pkt := request(seq, uint16(seq)%uint16(ref.NumGroups()))
		burst = append(burst, memDatagram{b: pkt, addr: memClientAddr},
			memDatagram{b: []byte("not netclone"), addr: memClientAddr})
		var h wire.Header
		if _, err := h.Unmarshal(pkt); err != nil {
			t.Fatal(err)
		}
		res := ref.Process(&h)
		if res.Act != dataplane.ActCloneAndForward {
			t.Fatalf("request %d: %v on an idle cluster, want a clone", seq, res.Act)
		}
		clone := res.Clone
		cr := ref.Process(&clone)
		if cr.Act != dataplane.ActForwardServer {
			t.Fatalf("request %d: recirculated clone %v", seq, cr.Act)
		}
		want = append(want, fwd{h, memServerAddr[res.DstSID]}, fwd{clone, memServerAddr[cr.DstSID]})
		resps = append(resps,
			memDatagram{b: response(h, res.DstSID), addr: memServerAddr[res.DstSID]},
			memDatagram{b: response(clone, cr.DstSID), addr: memServerAddr[cr.DstSID]})
	}
	for _, d := range resps {
		burst = append(burst, d)
		var h wire.Header
		if _, err := h.Unmarshal(d.b); err != nil {
			t.Fatal(err)
		}
		switch res := ref.Process(&h); res.Act {
		case dataplane.ActForwardClient:
			want = append(want, fwd{h, memClientAddr})
		case dataplane.ActDrop:
		default:
			t.Fatalf("response %+v: %v", h, res.Act)
		}
	}
	if len(burst) != ioBurst || len(want) != 24 {
		t.Fatalf("fixture: %d datagrams in, %d expected out", len(burst), len(want))
	}

	serveMem(t, sw, m)
	m.deliver(burst...)
	m.deliver() // returns once the first burst is done
	if n := m.flushes.Load(); n != 1 {
		t.Fatalf("%d flushes for one burst, want 1", n)
	}
	got := <-m.out
	if len(got) != len(want) {
		t.Fatalf("flushed %d datagrams, want %d", len(got), len(want))
	}
	for i, d := range got {
		var h wire.Header
		if _, err := h.Unmarshal(d.b); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if h != want[i].h || d.addr != want[i].to {
			t.Errorf("datagram %d: %+v to %v, want %+v to %v", i, h, d.addr, want[i].h, want[i].to)
		}
	}
}

// TestOpenLoopCountsFailedSends pins the open loop's failure handling
// on a ring of one, as the portable transport sends: every fourth flush
// fails, the run goes on and returns no error, SendErrors holds the
// exact count, and the next run starts clean. A loss-free echo answers
// every request that leaves.
func TestOpenLoopCountsFailedSends(t *testing.T) {
	m := newMemTransport(1)
	var failing atomic.Bool
	failing.Store(true)
	m.fail = func(n int64) bool { return failing.Load() && n%4 == 0 }
	echoDone := make(chan struct{})
	go func() { // the switch and servers: answer every request
		defer close(echoDone)
		for burst := range m.out {
			for i, d := range burst {
				var h wire.Header
				if _, err := h.Unmarshal(d.b); err != nil {
					panic(err)
				}
				burst[i].b = response(h, 0)
			}
			m.in <- burst
		}
	}()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(conn, m, memServerAddr[0], ClientConfig{ClientID: 1, FilterTables: 2, Seed: 1})
	defer func() {
		close(m.out)
		<-echoDone
		close(m.in)
		cl.Close()
	}()

	cfg := OpenLoopConfig{NumGroups: 2, RatePerSec: 20000, Requests: 100, Drain: 50 * time.Millisecond}
	res, err := cl.RunOpenLoop(cfg)
	if err != nil {
		t.Fatalf("run with failing sends returned %v, want nil", err)
	}
	if got := cl.SendErrors(); got != 25 {
		t.Fatalf("SendErrors = %d, want 25", got)
	}
	if res.Completed != 75 {
		t.Fatalf("completed %d, want the 75 requests that left", res.Completed)
	}
	failing.Store(false)
	res, err = cl.RunOpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 || cl.SendErrors() != 25 {
		t.Fatalf("second run: completed %d (want 100), SendErrors %d (want 25)", res.Completed, cl.SendErrors())
	}
}

// requestBurst is one burst of n requests from the switch, ClientSeq
// 1..n.
func requestBurst(n int) []memDatagram {
	burst := make([]memDatagram, n)
	for i := range burst {
		burst[i] = memDatagram{b: request(uint32(i+1), 0), addr: memSwitchAddr}
	}
	return burst
}

// TestServerReportsBurstBacklog pins the load a server piggybacks when
// a receive burst outnumbers its workers: one burst of 8 requests into
// 2 workers leaves 6 waiting, so every response reports at least 6,
// and the response to the last request, which finds the FCFS queue
// empty, reports exactly 6.
func TestServerReportsBurstBacklog(t *testing.T) {
	_, m := newMemServer(t, ServerConfig{SID: 1, Workers: 2})
	m.deliver(requestBurst(8)...)
	state := map[uint32]uint16{}
	for len(state) < 8 {
		select {
		case burst := <-m.out:
			for _, d := range burst {
				var h wire.Header
				if _, err := h.Unmarshal(d.b); err != nil || h.Type != wire.TypeResp || d.addr != memSwitchAddr {
					t.Fatalf("server sent %+v to %v (%v), want a response to the switch", h, d.addr, err)
				}
				state[h.ClientSeq] = h.State
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 8 responses after 5s", len(state))
		}
	}
	for seq, st := range state {
		if st < 6 {
			t.Errorf("response %d reports State %d, want at least 6", seq, st)
		}
	}
	if st := state[8]; st != 6 {
		t.Errorf("response to the last request reports State %d, want 6", st)
	}
}

// TestServerCountsQueueOverflow pins the server's overflow count: a
// one-slot queue in front of one slow worker takes at most two of a
// burst of 8, the rest are counted as queue drops, and the cluster
// counters carry the server's count.
func TestServerCountsQueueOverflow(t *testing.T) {
	srv, m := newMemServer(t, ServerConfig{SID: 1, Workers: 1, QueueCap: 1, ExtraServiceTime: 20 * time.Millisecond})
	m.deliver(requestBurst(8)...)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Processed()+srv.QueueDrops() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d, queue drops %d after 5s; want them to sum to 8", srv.Processed(), srv.QueueDrops())
		}
		time.Sleep(time.Millisecond)
	}
	if n := srv.QueueDrops(); n < 6 || srv.Processed()+n != 8 {
		t.Fatalf("processed %d, queue drops %d; want at least 6 drops and a sum of 8", srv.Processed(), n)
	}
	sw, _ := newMemSwitch(t, defaultDcfg(), ioBurst)
	c := &Cluster{Switch: sw, Servers: []*Server{srv}}
	if got := c.Counters().QueueDrops; got != srv.QueueDrops() {
		t.Fatalf("ClusterCounters.QueueDrops = %d, want the server's %d", got, srv.QueueDrops())
	}
}

// takeResponses reads n datagrams off m.out, failing the test after 5s,
// and returns each as the response header it carries and when it left.
func takeResponses(t *testing.T, m *memTransport, n int) (hs []wire.Header, at []time.Time) {
	t.Helper()
	for len(hs) < n {
		select {
		case burst := <-m.out:
			for _, d := range burst {
				var h wire.Header
				if _, err := h.Unmarshal(d.b); err != nil || h.Type != wire.TypeResp || d.addr != memSwitchAddr {
					t.Fatalf("server sent %+v to %v (%v), want a response to the switch", h, d.addr, err)
				}
				hs, at = append(hs, h), append(at, d.at)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d responses after 5s", len(hs), n)
		}
	}
	return hs, at
}

// TestServerServiceTimeOnTime pins the service time as a due time: a
// burst of 4 requests into 2 slots of 200 µs answers the first two
// 200 µs after delivery and the last two 400 µs after, each within
// fabricSlack at the median of 15 bursts (a GC cycle can delay one
// burst's sender by a millisecond). A worker that slept on the runtime
// timer took about 1 ms per request.
func TestServerServiceTimeOnTime(t *testing.T) {
	const service, rounds = 200 * time.Microsecond, 15
	_, m := newMemServer(t, ServerConfig{SID: 1, Workers: 2, ExtraServiceTime: service})
	var left [4][]time.Duration // by ClientSeq - 1
	for range rounds {
		delivered := time.Now()
		m.deliver(requestBurst(4)...)
		hs, at := takeResponses(t, m, 4)
		for i, h := range hs {
			left[h.ClientSeq-1] = append(left[h.ClientSeq-1], at[i].Sub(delivered))
		}
	}
	for i, ds := range left {
		slices.Sort(ds)
		want := service * time.Duration(i/2+1)
		if got := ds[rounds/2]; got < want || got > want+fabricSlack {
			t.Errorf("response %d left a median %v after delivery, want %v to %v", i+1, got, want, want+fabricSlack)
		}
	}
}

// TestServerCrashLosesHeldResponses pins what a crash does to responses
// whose service has not ended: none of them leaves, CrashDrops counts
// them, and a request after recovery finds every slot free, so it is
// answered after one service time, not after four.
func TestServerCrashLosesHeldResponses(t *testing.T) {
	const service = 20 * time.Millisecond
	srv, m := newMemServer(t, ServerConfig{SID: 1, Workers: 1, ExtraServiceTime: service})
	m.deliver(requestBurst(3)...)
	m.deliver() // returns once the three are held
	srv.SetDown(true)
	srv.SetDown(false)
	delivered := time.Now()
	m.deliver(memDatagram{b: request(4, 0), addr: memSwitchAddr})
	m.deliver()
	hs, at := takeResponses(t, m, 1)
	if hs[0].ClientSeq != 4 {
		t.Fatalf("response %d left after the crash, want only 4's", hs[0].ClientSeq)
	}
	if got := at[0].Sub(delivered); got < service || got >= 2*service {
		t.Errorf("request after recovery answered %v after delivery, want %v to %v", got, service, 2*service)
	}
	if srv.CrashDrops() != 3 || srv.Processed() != 1 {
		t.Errorf("CrashDrops %d, Processed %d; want 3 and 1", srv.CrashDrops(), srv.Processed())
	}
}

// TestServerReportsLoadAtDeparture pins when a held response reads the
// load it reports: as its service ends, like the simulator's server.
// One slot of 20 ms and three requests 1 ms apart answer at +20, +40
// and +60 ms, when 2, 1 and 0 of the others still wait to start.
func TestServerReportsLoadAtDeparture(t *testing.T) {
	_, m := newMemServer(t, ServerConfig{SID: 1, Workers: 1, ExtraServiceTime: 20 * time.Millisecond})
	for seq := range uint32(3) {
		m.deliver(memDatagram{b: request(seq+1, 0), addr: memSwitchAddr})
		time.Sleep(time.Millisecond)
	}
	hs, _ := takeResponses(t, m, 3)
	for i, h := range hs {
		if want := uint16(2 - i); h.ClientSeq != uint32(i+1) || h.State != want {
			t.Errorf("response %d reports State %d, want response %d with State %d", h.ClientSeq, h.State, i+1, want)
		}
	}
}

// TestServerGuardsBurstWithoutServiceTime pins the §3.4 guard when
// requests take no service time: the requests of one burst arrive
// together, so into 2 slots the third waits for none and the fourth
// for one. Of two clones in those places, the second is dropped.
func TestServerGuardsBurstWithoutServiceTime(t *testing.T) {
	srv, m := newMemServer(t, ServerConfig{SID: 1, Workers: 2})
	burst := requestBurst(4)
	for i := 2; i < 4; i++ {
		h := wire.Header{Type: wire.TypeReq, ClientID: 1, ClientSeq: uint32(i + 1), PktTotal: 1, Clo: wire.CloClone}
		burst[i].b = encode(h, wire.AppendOp(nil, uint8(workload.OpGet), uint64(i), 0, nil))
	}
	m.deliver(burst...)
	hs, _ := takeResponses(t, m, 3)
	if hs[2].ClientSeq != 3 || srv.CloneDrops() != 1 {
		t.Errorf("answered through %d with %d clone drops, want through 3 with 1", hs[2].ClientSeq, srv.CloneDrops())
	}
}

// TestServerCountsHeldSendErrors: a held response that its line fails
// to write counts as a send error, not as processed.
func TestServerCountsHeldSendErrors(t *testing.T) {
	srv, m := newMemServer(t, ServerConfig{SID: 1, Workers: 1, ExtraServiceTime: time.Millisecond})
	srv.svc.conn = failingWriter{}
	m.deliver(requestBurst(2)...)
	m.deliver() // returns once both are held
	deadline := time.Now().Add(5 * time.Second)
	for srv.SendErrors() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.SendErrors() != 2 || srv.Processed() != 0 {
		t.Errorf("SendErrors %d, Processed %d; want 2 and 0", srv.SendErrors(), srv.Processed())
	}
}

// failingWriter is a socket whose every write fails.
type failingWriter struct{}

func (failingWriter) WriteToUDPAddrPort([]byte, netip.AddrPort) (int, error) {
	return 0, errMemFlush
}

// TestServerBurstAllocsNothing is the allocation guard of the server's
// loop: serving a warm burst of 8 requests and flushing its responses
// costs zero allocations.
func TestServerBurstAllocsNothing(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", net.UDPAddrFromAddrPort(memSwitchAddr), ServerConfig{SID: 1, Workers: 2, IO: IOPortable})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	m := newMemTransport(ioBurst)
	m.out = nil
	srv.tr = m
	m.cur = requestBurst(8)
	if allocs := testing.AllocsPerRun(200, func() { srv.serveBurst(len(m.cur)) }); allocs != 0 {
		t.Errorf("%v allocations per burst, want 0", allocs)
	}
	if got, runs := srv.Processed(), m.flushes.Load(); got != 8*runs {
		t.Errorf("processed %d requests in %d flushes, want 8 per flush", got, runs)
	}
}

// TestLocalServerRunsOneGoroutine: a started server on the client rack
// without service time is one goroutine, its loop, and Serve returns
// after Close.
func TestLocalServerRunsOneGoroutine(t *testing.T) {
	sw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	var srv *Server
	served := make(chan error, 1)
	pprof.Do(context.Background(), pprof.Labels("node", t.Name()), func(context.Context) {
		if srv, err = NewServer("127.0.0.1:0", sw.LocalAddr().(*net.UDPAddr), ServerConfig{SID: 1, Workers: 2}); err == nil {
			go func() { served <- srv.Serve() }()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteToUDP(request(1, 0), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	sw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, _, err := sw.ReadFromUDP(make([]byte, maxDatagram)); err != nil {
		t.Fatalf("no response: %v", err)
	}
	if n := labeledGoroutines(t, t.Name()); n != 1 {
		t.Errorf("server runs %d goroutines, want 1", n)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v after Close, want nil", err)
	}
}

// labeledGoroutines counts the goroutines carrying the pprof label
// node=name, which goroutines inherit from the one that starts them.
func labeledGoroutines(t *testing.T, name string) int {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("%q:%q", "node", name)
	n := 0
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if !strings.Contains(rec, label) {
			continue
		}
		k, _, _ := strings.Cut(rec, " @")
		c, err := strconv.Atoi(k)
		if err != nil {
			t.Fatalf("goroutine profile record %q: %v", rec, err)
		}
		n += c
	}
	return n
}

//go:build linux && (amd64 || arm64)

package udpemu

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"netclone/internal/wire"
)

// TestBatchConnRoundTrip exercises the rings directly: fill the write
// ring past one auto-flush boundary, then read everything back with
// recvmmsg and check payloads and source addresses.
func TestBatchConnRoundTrip(t *testing.T) {
	aConn, a := newTestBatchConn(t)
	bConn, b := newTestBatchConn(t)
	bPA := addrPort(bConn.LocalAddr().(*net.UDPAddr))
	aPA := addrPort(aConn.LocalAddr().(*net.UDPAddr))

	const total = ioBurst + 5 // crosses one auto-flush
	for i := 0; i < total; i++ {
		slot := a.wslot()
		slot = append(slot, byte(i), byte(i>>8), 0xEE)
		if dropped, err := a.commit(len(slot), bPA); err != nil || dropped != 0 {
			t.Fatalf("commit %d: dropped=%d err=%v", i, dropped, err)
		}
	}
	if dropped, err := a.flush(); err != nil || dropped != 0 {
		t.Fatalf("final flush: dropped=%d err=%v", dropped, err)
	}

	seen := make(map[int]bool)
	for len(seen) < total {
		n, err := b.recv()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			pkt := b.pkt(i)
			if len(pkt) != 3 || pkt[2] != 0xEE {
				t.Fatalf("packet %x", pkt)
			}
			if src := b.src(i); src != aPA {
				t.Fatalf("src = %v, want %v", src, aPA)
			}
			seen[int(pkt[0])|int(pkt[1])<<8] = true
		}
	}
}

// TestBatchConnFlushError pins send-error accounting: once the socket
// underneath is closed, flush reports every queued datagram as dropped
// instead of discarding the failure.
func TestBatchConnFlushError(t *testing.T) {
	aConn, a := newTestBatchConn(t)
	peerConn, _ := newTestBatchConn(t)
	peerPA := addrPort(peerConn.LocalAddr().(*net.UDPAddr))

	const queued = 7
	for i := 0; i < queued; i++ {
		slot := a.wslot()
		slot = append(slot, byte(i))
		if _, err := a.commit(len(slot), peerPA); err != nil {
			t.Fatal(err)
		}
	}
	aConn.Close()
	dropped, err := a.flush()
	if err == nil {
		t.Fatal("flush on a closed socket reported success")
	}
	if dropped != queued {
		t.Fatalf("dropped = %d, want %d", dropped, queued)
	}
	if a.wn != 0 {
		t.Fatalf("ring not reset after failed flush: wn = %d", a.wn)
	}
}

// TestBatchConnGSORuns pins the segmentation offloads end to end. One
// flush holds a run of equal datagrams to A with a shorter tail, a run
// to B, then two runs of other lengths to A; it must go as one
// sendmmsg entry per run. A's batch receiver (UDP_GRO) and B's portable
// receiver must each read exactly their datagrams, bytes and source, in
// the order sent.
func TestBatchConnGSORuns(t *testing.T) {
	sConn, s := newTestBatchConn(t)
	aConn, a := newTestBatchConn(t)
	bConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bConn.Close() })
	b := &portableConn{conn: bConn}
	sPA := addrPort(sConn.LocalAddr().(*net.UDPAddr))
	aPA := addrPort(aConn.LocalAddr().(*net.UDPAddr))
	bPA := addrPort(bConn.LocalAddr().(*net.UDPAddr))

	runs := []struct {
		to         netip.AddrPort
		size, many int
	}{
		{aPA, 40, 5}, {aPA, 25, 1}, // a run and its shorter tail
		{bPA, 40, 3},               // another destination
		{aPA, 60, 4}, {aPA, 90, 2}, // a longer datagram starts a new run
	}
	const entries = 4
	want := map[netip.AddrPort][][]byte{}
	sent := 0
	for _, r := range runs {
		for range r.many {
			slot := s.wslot()
			for range r.size {
				slot = append(slot, byte(sent))
			}
			if dropped, err := s.commit(len(slot), r.to); err != nil || dropped != 0 {
				t.Fatalf("commit %d: dropped=%d err=%v", sent, dropped, err)
			}
			want[r.to] = append(want[r.to], bytes.Clone(slot))
			sent++
		}
	}
	if dropped, err := s.flush(); err != nil || dropped != 0 {
		t.Fatalf("flush: dropped=%d err=%v", dropped, err)
	}
	if s.sentEntries != entries {
		t.Errorf("%d datagrams went as %d sendmmsg entries, want %d", sent, s.sentEntries, entries)
	}
	readExactly(t, "batch receiver", a, aConn, want[aPA], sPA)
	readExactly(t, "portable receiver", b, bConn, want[bPA], sPA)
}

// TestBatchConnResendsRefusedGroup pins the refusal rule: a socket
// without UDP checksums (SO_NO_CHECK) may not send GSO, so the kernel
// refuses every group, and flush must resend its datagrams one by one
// with none dropped.
func TestBatchConnResendsRefusedGroup(t *testing.T) {
	sConn, s := newTestBatchConn(t)
	aConn, a := newTestBatchConn(t)
	rc, err := sConn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Skip("SO_NO_CHECK unavailable:", err, serr)
	}
	sPA := addrPort(sConn.LocalAddr().(*net.UDPAddr))
	aPA := addrPort(aConn.LocalAddr().(*net.UDPAddr))

	var want [][]byte
	for i := range 5 {
		slot := append(s.wslot(), byte(i), 0xEE, 0xEE)
		if dropped, err := s.commit(len(slot), aPA); err != nil || dropped != 0 {
			t.Fatalf("commit %d: dropped=%d err=%v", i, dropped, err)
		}
		want = append(want, bytes.Clone(slot))
	}
	if dropped, err := s.flush(); err != nil || dropped != 0 {
		t.Fatalf("flush: dropped=%d err=%v", dropped, err)
	}
	if s.sentEntries != int64(len(want)) {
		t.Errorf("%d datagrams went as %d sendmmsg entries, want one each", len(want), s.sentEntries)
	}
	readExactly(t, "batch receiver", a, aConn, want, sPA)
}

// readExactly reads len(want) datagrams from tr and checks each one's
// bytes and source against want, in order.
func readExactly(t *testing.T, name string, tr transport, conn *net.UDPConn, want [][]byte, from netip.AddrPort) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := 0
	for got < len(want) {
		n, err := tr.recv()
		if err != nil {
			t.Fatalf("%s: after %d of %d datagrams: %v", name, got, len(want), err)
		}
		for i := range n {
			if got == len(want) {
				t.Fatalf("%s: more than the %d datagrams sent", name, len(want))
			}
			if !bytes.Equal(tr.pkt(i), want[got]) {
				t.Fatalf("%s: datagram %d = %x, want %x", name, got, tr.pkt(i), want[got])
			}
			if src := tr.src(i); src != from {
				t.Fatalf("%s: datagram %d from %v, want %v", name, got, src, from)
			}
			got++
		}
	}
}

// TestBatchConnAllocsNothing pins the steady batch path over a real
// loopback pair: commit, flush and recv allocate nothing, syscall
// callbacks included.
func TestBatchConnAllocsNothing(t *testing.T) {
	_, a := newTestBatchConn(t)
	bConn, b := newTestBatchConn(t)
	bPA := addrPort(bConn.LocalAddr().(*net.UDPAddr))
	bConn.SetReadDeadline(time.Now().Add(10 * time.Second))
	const burst = 3
	round := func() {
		for i := range burst {
			slot := append(a.wslot(), byte(i), 0xEE)
			if dropped, err := a.commit(len(slot), bPA); err != nil || dropped != 0 {
				t.Fatalf("commit: dropped=%d err=%v", dropped, err)
			}
		}
		if dropped, err := a.flush(); err != nil || dropped != 0 {
			t.Fatalf("flush: dropped=%d err=%v", dropped, err)
		}
		for got := 0; got < burst; {
			n, err := b.recv()
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("commit+flush+recv allocates %.1f times per round, want 0", allocs)
	}
}

// TestBatchConnRejectsIPv6 pins the IPv4-only constraint: a dual-stack
// wildcard socket would hand recvmmsg sockaddr_in6 source addresses the
// fixed-size ring cannot hold.
func TestBatchConnRejectsIPv6(t *testing.T) {
	conn, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback})
	if err != nil {
		t.Skip("IPv6 loopback unavailable:", err)
	}
	defer conn.Close()
	if _, err := newBatchConn(conn); err == nil {
		t.Error("newBatchConn accepted an IPv6 socket")
	}
}

func newTestBatchConn(t *testing.T) (*net.UDPConn, *batchConn) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	bc, err := newBatchConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	return conn, bc
}

// memIngress is a switch transport that receives from a memTransport
// and writes through a real batchConn.
type memIngress struct {
	*batchConn
	in *memTransport
}

func (x memIngress) recv() (int, error)       { return x.in.recv() }
func (x memIngress) pkt(i int) []byte         { return x.in.pkt(i) }
func (x memIngress) src(i int) netip.AddrPort { return x.in.src(i) }

// TestBatchNonIPv4DestinationIsSendError pins the batch transport's
// address rule: a forward to an IPv6 server and a response to a client
// learned from an IPv6 source each count one send error, and the switch
// keeps serving.
func TestBatchNonIPv4DestinationIsSendError(t *testing.T) {
	cfg := defaultDcfg()
	cfg.EnableCloning = false
	sw, m := newMemSwitch(t, cfg, ioBurst)
	v6 := netip.MustParseAddrPort("[2001:db8::1]:7000")
	for sid := uint16(0); sid < 2; sid++ {
		if err := sw.AddServer(sid, net.UDPAddrFromAddrPort(v6)); err != nil {
			t.Fatal(err)
		}
	}
	_, bc := newTestBatchConn(t)
	sw.tr = memIngress{batchConn: bc, in: m}
	serveMem(t, sw, m)

	client := netip.MustParseAddrPort("[2001:db8::2]:5000")
	m.deliver(
		memDatagram{b: request(1, 0), addr: client},
		memDatagram{b: response(wire.Header{Type: wire.TypeReq, ClientID: 1, ClientSeq: 1}, 0), addr: v6},
	)
	m.deliver()
	if got := sw.SendErrors(); got != 2 {
		t.Fatalf("SendErrors = %d, want 2 (one forward, one response)", got)
	}
}

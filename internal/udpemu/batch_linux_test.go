//go:build linux && (amd64 || arm64)

package udpemu

import (
	"net"
	"net/netip"
	"testing"

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

package udpemu

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
)

// IOMode selects the transport the emulator components move packets
// through (DESIGN.md §12): bursts of one datagram per syscall (the
// portable path) or recvmmsg/sendmmsg bursts through preallocated rings.
type IOMode uint8

const (
	// IOAuto uses the batched path when the platform and socket support
	// it (Linux amd64/arm64, IPv4 socket, UDP_GRO) and falls back to the
	// portable path otherwise. The default.
	IOAuto IOMode = iota
	// IOPortable forces the one-datagram-per-syscall net.UDPConn path —
	// the fallback on unsupported platforms and the equivalence
	// reference for the batched path.
	IOPortable
	// IOBatch requires the batched path; construction fails where it is
	// unsupported instead of silently degrading.
	IOBatch
)

// ioBurst is the batch size: how many messages one recvmmsg drains and
// how many datagrams the write ring holds before it flushes. 32 mirrors
// the simulator's event-burst window (DESIGN.md §7) and common NIC burst
// sizes.
const ioBurst = 32

// String returns the flag spelling of the mode.
func (m IOMode) String() string {
	switch m {
	case IOAuto:
		return "auto"
	case IOPortable:
		return "portable"
	case IOBatch:
		return "batch"
	default:
		return fmt.Sprintf("IOMode(%d)", int(m))
	}
}

// ParseIOMode parses the -io flag vocabulary: auto, portable, batch.
func ParseIOMode(s string) (IOMode, error) {
	switch s {
	case "auto", "":
		return IOAuto, nil
	case "portable":
		return IOPortable, nil
	case "batch":
		return IOBatch, nil
	default:
		return IOAuto, fmt.Errorf("udpemu: unknown I/O mode %q (want auto, portable, or batch)", s)
	}
}

// errBatchUnsupported rejects IOBatch where the batch path cannot run.
var errBatchUnsupported = errors.New(
	"udpemu: batched I/O needs Linux 5.0 or later on amd64/arm64 and an IPv4-bound socket; use -io portable or IOAuto")

// transport is every node's one packet interface: a receive burst and a
// write ring. recv blocks until at least one datagram is ready and
// returns how many the burst holds; pkt(i) and src(i) view datagram i
// until the next recv. wslot returns the next free write slot as an
// empty slice with the slot's capacity; append the datagram into it and
// commit its length and destination. A full ring flushes itself, and
// flush sends whatever is committed. commit and flush return the
// datagrams they dropped, with the last error behind them. The receive
// side belongs to one goroutine and the write side to one goroutine;
// they may be different goroutines.
type transport interface {
	recv() (int, error)
	pkt(i int) []byte
	src(i int) netip.AddrPort
	wslot() []byte
	commit(n int, to netip.AddrPort) (dropped int, err error)
	flush() (dropped int, err error)
}

// resolveIO maps a requested mode and a bound socket onto the transport
// actually used. IOBatch propagates the failure; IOAuto degrades
// silently to the portable transport.
func resolveIO(mode IOMode, conn *net.UDPConn) (transport, error) {
	if mode == IOPortable || (mode == IOAuto && !batchSupported) {
		return &portableConn{conn: conn}, nil
	}
	bc, err := newBatchConn(conn)
	if err == nil {
		return bc, nil
	}
	if mode == IOBatch {
		return nil, err
	}
	return &portableConn{conn: conn}, nil // e.g. IPv6 socket
}

// portableConn is the transport as bursts of one: one ReadFromUDPAddrPort
// per recv and one WriteToUDPAddrPort per commit, through fixed buffers,
// so it allocates nothing either.
type portableConn struct {
	conn *net.UDPConn

	rbuf [maxDatagram]byte
	rn   int
	rsrc netip.AddrPort

	wbuf [maxDatagram]byte
	wn   int // bytes committed to the one write slot; 0 when empty
	wto  netip.AddrPort
}

func (p *portableConn) recv() (int, error) {
	n, from, err := p.conn.ReadFromUDPAddrPort(p.rbuf[:])
	if err != nil {
		return 0, err
	}
	p.rn, p.rsrc = n, from
	return 1, nil
}

func (p *portableConn) pkt(int) []byte         { return p.rbuf[:p.rn] }
func (p *portableConn) src(int) netip.AddrPort { return p.rsrc }
func (p *portableConn) wslot() []byte          { return p.wbuf[:0] }
func (p *portableConn) commit(n int, to netip.AddrPort) (int, error) {
	p.wn, p.wto = n, to
	return p.flush() // a ring of one is full at once
}

func (p *portableConn) flush() (int, error) {
	if p.wn == 0 {
		return 0, nil
	}
	n := p.wn
	p.wn = 0
	if _, err := p.conn.WriteToUDPAddrPort(p.wbuf[:n], p.wto); err != nil {
		return 1, err
	}
	return 0, nil
}

// sendErrors counts the datagrams a transport reported dropped. Its add
// takes a commit or flush result whole and passes the error on.
type sendErrors struct{ atomic.Int64 }

func (c *sendErrors) add(dropped int, err error) error {
	if dropped > 0 {
		c.Add(int64(dropped))
	}
	return err
}

// addrPort converts a UDP address to the transports' address type,
// unmapping IPv4-in-IPv6 so an IPv4 peer reads as IPv4.
func addrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

//go:build linux && (amd64 || arm64)

package udpemu

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// batchSupported: this build has the recvmmsg/sendmmsg rings.
const batchSupported = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// per-message byte count the kernel fills in. The trailing pad keeps
// the array stride at the kernel's 8-byte-aligned layout on both
// 64-bit arches.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// rawInet4Len is sizeof(struct sockaddr_in).
const rawInet4Len = uint32(unsafe.Sizeof(syscall.RawSockaddrInet4{}))

// batchConn is one socket's preallocated burst rings: ioBurst receive
// slots filled by a single recvmmsg per wakeup, and ioBurst send slots
// flushed by a single sendmmsg. All pointers into the rings are wired
// once at construction, so the steady path allocates nothing — the
// same freelist discipline as the simulator's event pool (DESIGN.md
// §7). The receive ring is owned by one reader goroutine and the send
// ring by one writer goroutine; they may be different goroutines.
type batchConn struct {
	rc syscall.RawConn

	rbufs [ioBurst][maxDatagram]byte
	riovs [ioBurst]syscall.Iovec
	rhdrs [ioBurst]mmsghdr
	rsas  [ioBurst]syscall.RawSockaddrInet4

	// Write slots leave headroom past maxDatagram for the 2-byte relay
	// preamble prepended when forwarding a full-size datagram.
	wbufs [ioBurst][maxDatagram + 4]byte
	wiovs [ioBurst]syscall.Iovec
	whdrs [ioBurst]mmsghdr
	wsas  [ioBurst]syscall.RawSockaddrInet4
	wn    int
}

// newBatchConn wires the rings over conn. Only IPv4-bound sockets
// qualify: a dual-stack socket would hand back sockaddr_in6 source
// addresses the IPv4 rings cannot hold.
func newBatchConn(conn *net.UDPConn) (*batchConn, error) {
	la, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok || la.IP.To4() == nil {
		return nil, errBatchUnsupported
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchConn{rc: rc}
	for i := range b.rhdrs {
		b.riovs[i] = syscall.Iovec{Base: &b.rbufs[i][0], Len: maxDatagram}
		b.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.rsas[i]))
		b.rhdrs[i].hdr.Namelen = rawInet4Len
		b.rhdrs[i].hdr.Iov = &b.riovs[i]
		b.rhdrs[i].hdr.Iovlen = 1

		b.wiovs[i] = syscall.Iovec{Base: &b.wbufs[i][0]}
		b.whdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.wsas[i]))
		b.whdrs[i].hdr.Namelen = rawInet4Len
		b.whdrs[i].hdr.Iov = &b.wiovs[i]
		b.whdrs[i].hdr.Iovlen = 1
	}
	return b, nil
}

// recv blocks (through the runtime netpoller) until at least one
// datagram is ready and drains up to ioBurst of them into the receive
// ring in one syscall. It returns the number received.
func (b *batchConn) recv() (int, error) {
	// The kernel overwrites each slot's namelen; restore the input
	// buffer size before reusing the ring.
	for i := range b.rhdrs {
		b.rhdrs[i].hdr.Namelen = rawInet4Len
	}
	var n int
	var serr error
	err := b.rc.Read(func(fd uintptr) bool {
		for {
			r1, _, e := syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&b.rhdrs[0])), ioBurst,
				syscall.MSG_DONTWAIT, 0, 0)
			switch e {
			case 0:
				n = int(r1)
				return true
			case syscall.EAGAIN:
				return false // re-arm the netpoller wait
			case syscall.EINTR:
				continue
			default:
				serr = e
				return true
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return n, serr
}

// pkt returns received datagram i's bytes, valid until the next recv.
func (b *batchConn) pkt(i int) []byte { return b.rbufs[i][:b.rhdrs[i].len] }

// src returns datagram i's source address (sin_port is big-endian).
func (b *batchConn) src(i int) netip.AddrPort {
	sa := &b.rsas[i]
	if sa.Family != syscall.AF_INET {
		return netip.AddrPort{}
	}
	return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), sa.Port>>8|sa.Port<<8)
}

// wslot returns the next free send slot as an empty slice with the
// slot's full capacity; append the datagram into it, then commit.
func (b *batchConn) wslot() []byte { return b.wbufs[b.wn][:0] }

// errNotIPv4 drops a datagram whose destination the IPv4 rings cannot
// name.
var errNotIPv4 = errors.New("udpemu: batched I/O sends to IPv4 destinations only")

// commit finalizes the current send slot (n bytes to to) and flushes
// the ring when it is full. It returns the datagrams dropped: the
// flush's, or this one when to is not IPv4.
func (b *batchConn) commit(n int, to netip.AddrPort) (int, error) {
	ip := to.Addr()
	if !ip.Is4() && !ip.Is4In6() {
		return 1, errNotIPv4
	}
	port := to.Port()
	b.wsas[b.wn] = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port>>8 | port<<8, Addr: ip.As4()}
	b.wiovs[b.wn].Len = uint64(n)
	b.wn++
	if b.wn == ioBurst {
		return b.flush()
	}
	return 0, nil
}

// flush sends every committed slot with as few sendmmsg calls as
// partial sends allow. A per-datagram kernel error drops that datagram
// (counted in dropped, the send-failure counter's feed) and keeps
// going; a transport-level error (e.g. the socket closed) drops the
// rest of the ring. err is the last error behind a drop.
func (b *batchConn) flush() (dropped int, err error) {
	sent := 0
	for sent < b.wn {
		var r int
		var serr error
		werr := b.rc.Write(func(fd uintptr) bool {
			for {
				r1, _, e := syscall.Syscall6(sysSENDMMSG, fd,
					uintptr(unsafe.Pointer(&b.whdrs[sent])), uintptr(b.wn-sent),
					syscall.MSG_DONTWAIT, 0, 0)
				switch e {
				case 0:
					r = int(r1)
					return true
				case syscall.EAGAIN:
					return false
				case syscall.EINTR:
					continue
				default:
					serr = e
					return true
				}
			}
		})
		if werr != nil {
			dropped += b.wn - sent
			b.wn = 0
			return dropped, werr
		}
		if serr != nil {
			// Head-of-ring datagram failed: count it, skip it, keep
			// flushing the rest.
			dropped++
			sent++
			err = serr
			continue
		}
		sent += r
	}
	b.wn = 0
	return dropped, err
}

//go:build linux && (amd64 || arm64)

package udpemu

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// The UDP segmentation offloads (linux/udp.h). UDP_SEGMENT is a sendmsg
// control message: the kernel splits the message's payload into
// datagrams of the given size, the last one possibly shorter (GSO).
// UDP_GRO is a socket option: the kernel may hand the socket a run of
// equal datagrams from one source as one message, with a control
// message giving their size.
const (
	udpSegment = 103
	udpGRO     = 104

	gsoMaxSegments = 64    // the kernel's UDP_MAX_SEGMENTS
	gsoMaxBytes    = 65507 // the largest IPv4 UDP payload
	groBufLen      = 1 << 16
)

// udpCmsg is one SOL_UDP control message: a cmsghdr and its payload,
// the size of CMSG_SPACE(sizeof(int)). UDP_SEGMENT carries a u16,
// UDP_GRO an int.
type udpCmsg struct {
	hdr  syscall.Cmsghdr
	data [8]byte
}

const (
	udpCmsgSpace = uint64(unsafe.Sizeof(udpCmsg{}))
	cmsgHdrLen   = uint64(unsafe.Sizeof(syscall.Cmsghdr{}))
)

// rview locates received datagram i: the ring slot that holds it and
// its bytes there.
type rview struct{ slot, off, n int32 }

// batchConn is one socket's preallocated burst rings: ioBurst receive
// slots filled by a single recvmmsg per wakeup, and ioBurst send slots
// flushed by a single sendmmsg. The kernel's UDP offloads make one
// message carry a run of datagrams both ways: each receive slot holds
// a GRO message of up to 64 KiB that recv splits back into datagrams,
// and flush sends each run of ring entries with one destination and
// one length as one UDP_SEGMENT message. All pointers into the rings
// are wired at construction and the syscall callbacks are bound once,
// so the steady path allocates nothing — the same freelist discipline
// as the simulator's event pool (DESIGN.md §7). The receive ring is
// owned by one reader goroutine and the send ring by one writer
// goroutine; they may be different goroutines.
type batchConn struct {
	rc syscall.RawConn

	riovs  [ioBurst]syscall.Iovec
	rhdrs  [ioBurst]mmsghdr
	rsas   [ioBurst]syscall.RawSockaddrInet4
	rctl   [ioBurst]udpCmsg
	rviews []rview // the datagrams of the last recv, in arrival order
	readFn func(fd uintptr) bool
	rn     int // messages the last recvmmsg returned
	rerr   error

	// whdrs holds one sendmmsg entry per group of write slots: a
	// group's name, iovecs and segment cmsg point into the slot arrays.
	wiovs   [ioBurst]syscall.Iovec
	wsas    [ioBurst]syscall.RawSockaddrInet4
	whdrs   [ioBurst]mmsghdr
	wctl    [ioBurst]udpCmsg
	wn      int // committed write slots
	writeFn func(fd uintptr) bool
	wm      int // entries offered to the next sendmmsg
	wr      int // entries it sent
	werr    error
	// sentEntries counts the sendmmsg entries the kernel accepted: one
	// per group, so fewer than the datagrams when runs form.
	sentEntries int64

	// The buffers come last, so the garbage collector's scan of the
	// struct ends before them.
	wbufs [ioBurst][maxDatagram]byte
	rbufs [ioBurst][groBufLen]byte
}

// newBatchConn wires the rings over conn and turns on UDP_GRO. Only
// IPv4-bound sockets qualify: a dual-stack socket would hand back
// sockaddr_in6 source addresses the IPv4 rings cannot hold. A socket
// that refuses UDP_GRO (Linux before 5.0) does not qualify either.
func newBatchConn(conn *net.UDPConn) (*batchConn, error) {
	la, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok || la.IP.To4() == nil {
		return nil, errBatchUnsupported
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, fmt.Errorf("%w (UDP_GRO: %v)", errBatchUnsupported, serr)
	}
	b := &batchConn{rc: rc, rviews: make([]rview, 0, ioBurst*gsoMaxSegments)}
	b.readFn, b.writeFn = b.recvmmsg, b.sendmmsg
	for i := range b.rhdrs {
		b.riovs[i] = syscall.Iovec{Base: &b.rbufs[i][0], Len: groBufLen}
		b.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.rsas[i]))
		b.rhdrs[i].hdr.Iov = &b.riovs[i]
		b.rhdrs[i].hdr.Iovlen = 1
		b.rhdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&b.rctl[i]))

		b.wiovs[i] = syscall.Iovec{Base: &b.wbufs[i][0]}
		b.wctl[i].hdr = syscall.Cmsghdr{Len: cmsgHdrLen + 2, Level: syscall.IPPROTO_UDP, Type: udpSegment}
	}
	return b, nil
}

// recv blocks (through the runtime netpoller) until at least one
// message is ready, drains up to ioBurst of them into the receive ring
// in one syscall and splits each GRO message into its datagrams. It
// returns the number of datagrams received.
func (b *batchConn) recv() (int, error) {
	// The kernel overwrites each slot's namelen and controllen; restore
	// the input buffer sizes before reusing the ring.
	for i := range b.rhdrs {
		b.rhdrs[i].hdr.Namelen = rawInet4Len
		b.rhdrs[i].hdr.Controllen = udpCmsgSpace
	}
	b.rn, b.rerr = 0, nil
	if err := b.rc.Read(b.readFn); err != nil {
		return 0, err
	}
	if b.rerr != nil {
		return 0, b.rerr
	}
	b.rviews = b.rviews[:0]
	for m := range b.rn {
		n := int32(b.rhdrs[m].len)
		seg := b.groSize(m)
		if seg <= 0 || seg > n {
			seg = max(n, 1) // one datagram, possibly empty
		}
		for off := int32(0); off == 0 || off < n; off += seg {
			b.rviews = append(b.rviews, rview{slot: int32(m), off: off, n: min(seg, n-off)})
		}
	}
	return len(b.rviews), nil
}

// groSize returns the datagram size of receive slot m's GRO message, or
// 0 when the slot holds a single datagram.
func (b *batchConn) groSize(m int) int32 {
	c := &b.rctl[m]
	if b.rhdrs[m].hdr.Controllen < cmsgHdrLen+4 || c.hdr.Level != syscall.IPPROTO_UDP || c.hdr.Type != udpGRO {
		return 0
	}
	return int32(binary.NativeEndian.Uint32(c.data[:4]))
}

// recvmmsg is recv's RawConn.Read callback, bound once in newBatchConn.
func (b *batchConn) recvmmsg(fd uintptr) bool {
	for {
		r1, _, e := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.rhdrs[0])), ioBurst,
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			b.rn = int(r1)
			return true
		case syscall.EAGAIN:
			return false // re-arm the netpoller wait
		case syscall.EINTR:
			continue
		default:
			b.rerr = e
			return true
		}
	}
}

// pkt returns received datagram i's bytes, valid until the next recv.
func (b *batchConn) pkt(i int) []byte {
	v := b.rviews[i]
	return b.rbufs[v.slot][v.off : v.off+v.n]
}

// src returns datagram i's source address (sin_port is big-endian).
func (b *batchConn) src(i int) netip.AddrPort {
	sa := &b.rsas[b.rviews[i].slot]
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
// partial sends allow, each run of datagrams as one entry (group). A
// group the kernel refuses is sent again as single datagrams; a single
// datagram the kernel refuses is dropped (counted in dropped, the
// send-failure counter's feed) and the flush goes on. A
// transport-level error (e.g. the socket closed) drops the rest of the
// ring. err is the last error behind a drop.
func (b *batchConn) flush() (dropped int, err error) {
	gso := true
	for next := 0; next < b.wn; {
		b.wm = b.group(next, gso)
		b.wr, b.werr = 0, nil
		if werr := b.rc.Write(b.writeFn); werr != nil {
			dropped += b.wn - next
			b.wn = 0
			return dropped, werr
		}
		for _, e := range b.whdrs[:b.wr] {
			next += int(e.hdr.Iovlen)
		}
		b.sentEntries += int64(b.wr)
		if b.werr == nil {
			continue
		}
		if b.whdrs[b.wr].hdr.Iovlen > 1 {
			gso = false // refused group: resend the rest one datagram each
			continue
		}
		dropped++
		next++
		err = b.werr
	}
	b.wn = 0
	return dropped, err
}

// group lays the committed slots from first on out as sendmmsg entries
// and returns how many. With gso, adjacent slots with one destination
// and one length form one entry, a shorter slot ending the run, up to
// gsoMaxSegments datagrams and gsoMaxBytes bytes: its iovecs are the
// slots and its UDP_SEGMENT cmsg has the kernel split the payload back
// into them. Without, every slot is an entry of its own.
func (b *batchConn) group(first int, gso bool) int {
	m := 0
	for i := first; i < b.wn; m++ {
		size := b.wiovs[i].Len
		j, bytes := i+1, size
		for gso && size > 0 && j < b.wn && j-i < gsoMaxSegments &&
			b.wsas[j] == b.wsas[i] && b.wiovs[j].Len <= size && bytes+b.wiovs[j].Len <= gsoMaxBytes {
			bytes += b.wiovs[j].Len
			j++
			if b.wiovs[j-1].Len < size {
				break
			}
		}
		h := &b.whdrs[m].hdr
		h.Name = (*byte)(unsafe.Pointer(&b.wsas[i]))
		h.Namelen = rawInet4Len
		h.Iov = &b.wiovs[i]
		h.Iovlen = uint64(j - i)
		h.Control, h.Controllen = nil, 0
		if j-i > 1 {
			binary.NativeEndian.PutUint16(b.wctl[m].data[:2], uint16(size))
			h.Control = (*byte)(unsafe.Pointer(&b.wctl[m]))
			h.Controllen = udpCmsgSpace
		}
		i = j
	}
	return m
}

// sendmmsg is flush's RawConn.Write callback, bound once in
// newBatchConn: it offers entries whdrs[:wm].
func (b *batchConn) sendmmsg(fd uintptr) bool {
	for {
		r1, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&b.whdrs[0])), uintptr(b.wm),
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			b.wr = int(r1)
			return true
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
			continue
		default:
			b.werr = e
			return true
		}
	}
}

package udpemu

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// delayLine injects one-way link latency into a forwarding path: the
// caller stamps each packet with its due time, a sender goroutine
// sleeps until then and transmits. Buffers come from a preallocated
// freelist, so steady-state forwarding does not allocate. Packets are
// FIFO per line — correct for a constant delay, and jitter windows
// only ever add delay at enqueue time, never reorder within the line.
type delayLine struct {
	conn *net.UDPConn

	ch   chan delayedPkt
	free chan *delayBuf

	sendErrs  atomic.Int64
	overflows atomic.Int64
	delayed   atomic.Int64

	wg        sync.WaitGroup
	closeOnce sync.Once
}

type delayBuf struct {
	b [maxDatagram + 4]byte
}

type delayedPkt struct {
	due time.Time
	to  netip.AddrPort
	buf *delayBuf
	n   int
}

// delayLineDepth bounds in-flight delayed packets per line. At the emu
// rate cap a line holds delay x rate packets; 4096 covers multi-ms
// delays with headroom. Overflow drops (counted) stand in for a full
// link queue.
const delayLineDepth = 4096

// newDelayLine starts the sender goroutine, which writes to conn
// directly: it owns no transport write ring, so it shares none.
func newDelayLine(conn *net.UDPConn) *delayLine {
	dl := &delayLine{
		conn: conn,
		ch:   make(chan delayedPkt, delayLineDepth),
		free: make(chan *delayBuf, delayLineDepth),
	}
	for i := 0; i < delayLineDepth; i++ {
		dl.free <- &delayBuf{}
	}
	dl.wg.Add(1)
	go dl.run()
	return dl
}

// enqueue schedules pkt for transmission to to at due. It copies pkt
// into a freelist buffer; a full line drops the packet (counted in
// overflows).
func (dl *delayLine) enqueue(pkt []byte, to netip.AddrPort, due time.Time) {
	var buf *delayBuf
	select {
	case buf = <-dl.free:
	default:
		dl.overflows.Add(1)
		return
	}
	n := copy(buf.b[:], pkt)
	select {
	case dl.ch <- delayedPkt{due: due, to: to, buf: buf, n: n}:
		dl.delayed.Add(1)
	default:
		// Freelist and channel have equal depth, so this branch is
		// unreachable; keep it non-blocking for safety.
		dl.free <- buf
		dl.overflows.Add(1)
	}
}

// run drains the line in order, sleeping until each packet's due time
// on a thread of its own (lockDelayThread).
func (dl *delayLine) run() {
	defer dl.wg.Done()
	lockDelayThread()
	for p := range dl.ch {
		sleepUntil(p.due)
		if _, err := dl.conn.WriteToUDPAddrPort(p.buf.b[:p.n], p.to); err != nil {
			dl.sendErrs.Add(1)
		}
		dl.free <- p.buf
	}
}

// close stops the sender after the queue drains.
func (dl *delayLine) close() {
	dl.closeOnce.Do(func() { close(dl.ch) })
	dl.wg.Wait()
}

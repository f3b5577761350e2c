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
// sleeps until then and transmits. Buffers are allocated on first use,
// up to delayLineDepth, and reused after, so a line costs memory in
// proportion to the most packets it ever held at once, and steady-state
// forwarding does not allocate. Packets leave in FIFO order, which is
// exact because each line carries one constant delay: a packet enqueued
// later is never due earlier.
//
// A line has one producer: enqueue is called from one goroutine only
// (the switch's Serve loop, or a server's egress loop).
type delayLine struct {
	conn *net.UDPConn

	ch chan *delayBuf

	mu   sync.Mutex
	free *delayBuf // sent buffers, linked through next
	made int       // buffers allocated so far; producer-only

	sendErrs  atomic.Int64
	overflows atomic.Int64

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// delayBuf is one delayed packet: its due time, destination and bytes.
type delayBuf struct {
	due  time.Time
	to   netip.AddrPort
	n    int
	next *delayBuf
	b    [maxDatagram]byte
}

// delayLineDepth bounds in-flight delayed packets per line. At the emu
// rate cap a line holds delay x rate packets; 4096 covers multi-ms
// delays with headroom. Overflow drops (counted) stand in for a full
// link queue.
const delayLineDepth = 4096

// newDelayLine starts the sender goroutine, which writes to conn
// directly: it owns no transport write ring, so it shares none.
func newDelayLine(conn *net.UDPConn) *delayLine {
	dl := &delayLine{conn: conn, ch: make(chan *delayBuf, delayLineDepth)}
	dl.wg.Add(1)
	go dl.run()
	return dl
}

// enqueue schedules pkt for transmission to to at due. It copies pkt
// into a free buffer, allocating one while fewer than delayLineDepth
// exist; a line already holding that many drops the packet (counted in
// overflows). ch holds at most every buffer, so the send never blocks.
func (dl *delayLine) enqueue(pkt []byte, to netip.AddrPort, due time.Time) {
	dl.mu.Lock()
	buf := dl.free
	if buf != nil {
		dl.free = buf.next
	}
	dl.mu.Unlock()
	if buf == nil {
		if dl.made == delayLineDepth {
			dl.overflows.Add(1)
			return
		}
		dl.made++
		buf = new(delayBuf)
	}
	buf.due, buf.to, buf.n = due, to, copy(buf.b[:], pkt)
	dl.ch <- buf
}

// run drains the line in order, sleeping until each packet's due time
// on a thread of its own (lockDelayThread).
func (dl *delayLine) run() {
	defer dl.wg.Done()
	lockDelayThread()
	for p := range dl.ch {
		sleepUntil(p.due)
		if _, err := dl.conn.WriteToUDPAddrPort(p.b[:p.n], p.to); err != nil {
			dl.sendErrs.Add(1)
		}
		dl.mu.Lock()
		p.next, dl.free = dl.free, p
		dl.mu.Unlock()
	}
}

// lost counts the packets the line failed to send or had no room for;
// a nil line lost none.
func (dl *delayLine) lost() int64 {
	if dl == nil {
		return 0
	}
	return dl.sendErrs.Load() + dl.overflows.Load()
}

// close stops the sender after the queue drains. The producer must
// have stopped. Closing a nil line does nothing.
func (dl *delayLine) close() {
	if dl == nil {
		return
	}
	dl.closeOnce.Do(func() { close(dl.ch) })
	dl.wg.Wait()
}

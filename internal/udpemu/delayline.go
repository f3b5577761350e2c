package udpemu

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// delayLine holds packets until they are due, for link latency or a
// server's service time: the caller stamps each packet with its due
// time, a sender goroutine sleeps until then and transmits. Buffers are
// allocated on first use, up to delayLineDepth, and reused after, so a
// line costs memory in proportion to the most packets it ever held at
// once, and steady-state forwarding does not allocate. Packets leave in
// FIFO order, which is exact because due times never decrease: a rack
// line or a server's uplink adds one constant delay, and a server's
// service line holds each response to the end of its FCFS service.
//
// A line has one producer: the Serve loop of its switch or server, or,
// for the uplink of a server with a service time, its service line.
type delayLine struct {
	conn    datagramWriter
	crashes *crashLog // a server's: drops what a crash cut short
	// depart, when set before the first enqueue, sends each due packet
	// in place of the write to conn (Server.depart).
	depart func(p *delayBuf) error

	ch chan *delayBuf

	mu   sync.Mutex
	free *delayBuf // sent buffers, linked through next
	made int       // buffers allocated so far; producer-only

	sendErrs  atomic.Int64
	overflows atomic.Int64

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// delayBuf is one delayed packet: its due time, destination and bytes,
// and for a server's response its service.
type delayBuf struct {
	due time.Time
	to  netip.AddrPort
	n   int
	service
	next *delayBuf
	b    [maxDatagram]byte
}

// service is a held response's FCFS service: its end, the crash count
// and admitted requests before it. The switch's lines pass the zero value.
type service struct {
	finish time.Time
	epoch  int32
	seq    int64
}

// datagramWriter is where a line sends: a node's socket.
type datagramWriter interface {
	WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error)
}

// delayLineDepth bounds in-flight delayed packets per line. At the emu
// rate cap a line holds delay x rate packets; 4096 covers multi-ms
// delays with headroom. Overflow drops (counted) stand in for a full
// link queue.
const delayLineDepth = 4096

// newDelayLine starts the sender goroutine, which writes to conn
// directly: it owns no transport write ring, so it shares none.
func newDelayLine(conn datagramWriter, crashes *crashLog) *delayLine {
	dl := &delayLine{conn: conn, crashes: crashes, ch: make(chan *delayBuf, delayLineDepth)}
	dl.wg.Add(1)
	go dl.run()
	return dl
}

// enqueue schedules pkt for transmission to to at due. It copies pkt
// into a free buffer, allocating one while fewer than delayLineDepth
// exist; a line already holding that many drops the packet (counted in
// overflows). ch holds at most every buffer, so the send never blocks.
func (dl *delayLine) enqueue(pkt []byte, to netip.AddrPort, due time.Time, sv service) {
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
	buf.due, buf.to, buf.n, buf.service = due, to, copy(buf.b[:], pkt), sv
	dl.ch <- buf
}

// run drains the line in order, sleeping until each packet's due time
// on a thread of its own (lockDelayThread). A response a crash already
// lost is dropped without the wait.
func (dl *delayLine) run() {
	defer dl.wg.Done()
	lockDelayThread()
	for p := range dl.ch {
		if !dl.crashes.cut(p.service) {
			sleepUntil(p.due)
		}
		var err error
		if dl.crashes.cut(p.service) {
			dl.crashes.lost.Add(1)
		} else if dl.depart != nil {
			err = dl.depart(p)
		} else {
			_, err = dl.conn.WriteToUDPAddrPort(p.b[:p.n], p.to)
		}
		if err != nil {
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

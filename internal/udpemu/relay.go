package udpemu

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// relayPreambleLen is the encapsulation the switch prepends on the
// relay downlink: the destination server ID, little-endian. The
// NetClone header cannot route this hop itself — a cloned original
// carries its clone's SID while being forwarded elsewhere (see
// dataplane.Process) — so the fabric hop names its destination
// explicitly, like an MPLS label on the ToR-to-ToR tunnel.
const relayPreambleLen = 2

// Relay emulates a non-client rack's ToR: a forwarding process with
// injected uplink delay on both directions, so WithRacks scenarios run
// on real sockets. It is deliberately dumb — the NetClone pipeline
// runs only in the client rack's ToR (the Switch), matching the
// simulator's switch-ID ownership rule where foreign ToRs pass packets
// through at L3.
//
// Two sockets separate the directions: the downlink receives
// preamble-encapsulated packets from the Switch and forwards them to
// the rack's local servers; the uplink receives bare packets from
// local servers and forwards them to the Switch. Each direction delays
// packets by the rack's one-way fabric latency through a delayLine.
type Relay struct {
	down   *net.UDPConn
	up     *net.UDPConn
	swAddr netip.AddrPort
	delay  time.Duration

	servers map[uint16]netip.AddrPort // immutable after Serve

	dlDown *delayLine
	dlUp   *delayLine

	sendErrs atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewRelay binds a rack relay on loopback. delay is the one-way fabric
// latency between this rack's ToR and the client rack's (the sum of
// both uplinks in the topology model); zero forwards immediately.
func NewRelay(swAddr *net.UDPAddr, delay time.Duration) (*Relay, error) {
	down, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	up, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		down.Close()
		return nil, err
	}
	r := &Relay{
		down:    down,
		up:      up,
		swAddr:  addrPort(swAddr),
		delay:   delay,
		servers: make(map[uint16]netip.AddrPort),
		closed:  make(chan struct{}),
		dlDown:  newDelayLine(down),
		dlUp:    newDelayLine(up),
	}
	return r, nil
}

// DownAddr is the switch-facing socket the Switch encapsulates to.
func (r *Relay) DownAddr() *net.UDPAddr { return r.down.LocalAddr().(*net.UDPAddr) }

// UpAddr is the server-facing socket local servers use as their switch
// address.
func (r *Relay) UpAddr() *net.UDPAddr { return r.up.LocalAddr().(*net.UDPAddr) }

// AddServer registers a local server. Call before Serve; the table is
// read lock-free afterwards.
func (r *Relay) AddServer(sid uint16, addr *net.UDPAddr) { r.servers[sid] = addrPort(addr) }

// SendErrors counts failed forwards in either direction.
func (r *Relay) SendErrors() int64 {
	return r.sendErrs.Load() + r.dlDown.sendErrs.Load() + r.dlUp.sendErrs.Load()
}

// Serve starts both forwarding directions; it returns immediately.
func (r *Relay) Serve() {
	r.wg.Add(2)
	go r.serveDown()
	go r.serveUp()
}

// serveDown forwards switch->server: strip the preamble, look up the
// destination, delay, deliver.
func (r *Relay) serveDown() {
	defer r.wg.Done()
	buf := make([]byte, maxDatagram+relayPreambleLen)
	for {
		n, _, err := r.down.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if n < relayPreambleLen {
			continue
		}
		sid := binary.LittleEndian.Uint16(buf)
		dst, ok := r.servers[sid]
		if !ok {
			continue
		}
		r.forward(r.dlDown, r.down, buf[relayPreambleLen:n], dst)
	}
}

// serveUp forwards server->switch: bare packets, delayed.
func (r *Relay) serveUp() {
	defer r.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := r.up.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		r.forward(r.dlUp, r.up, buf[:n], r.swAddr)
	}
}

// forward sends pkt to dst, through the direction's delay line when
// the rack has fabric latency.
func (r *Relay) forward(dl *delayLine, conn *net.UDPConn, pkt []byte, dst netip.AddrPort) {
	if r.delay <= 0 {
		if _, err := conn.WriteToUDPAddrPort(pkt, dst); err != nil {
			r.sendErrs.Add(1)
		}
		return
	}
	dl.enqueue(pkt, dst, time.Now().Add(r.delay))
}

// Close shuts both sockets and drains the delay lines. Idempotent.
func (r *Relay) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.closed)
		e1 := r.down.Close()
		e2 := r.up.Close()
		r.wg.Wait()
		r.dlDown.close()
		r.dlUp.close()
		if e1 != nil {
			err = e1
		} else {
			err = e2
		}
	})
	r.wg.Wait()
	return err
}

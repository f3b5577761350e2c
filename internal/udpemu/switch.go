// Package udpemu runs the NetClone data plane over real UDP sockets: a
// switch emulator, a kvstore-backed worker server, and a measuring
// client. It exercises the identical pipeline code (internal/dataplane)
// and wire format (internal/wire) as the discrete-event simulation, but
// over the kernel network stack — the substrate for the runnable examples
// and the loopback integration tests.
//
// It is an emulator, not a performance testbed: localhost RTT jitter is
// far larger than the microsecond effects the paper measures, so all
// latency figures come from the simulator (see DESIGN.md §1).
//
// Every node reads and writes through one burst transport (DESIGN.md
// §12): on Linux amd64/arm64 a recvmmsg/sendmmsg ring that moves up to
// 32 messages per syscall, a run of equal datagrams per message (UDP
// GSO and GRO), elsewhere — or under IOPortable — bursts of
// one through net.UDPConn. Both run the same loops through fixed
// buffers, allocation-free in steady state. IOAuto picks the batched
// transport when available; IOPortable pins the reference the
// equivalence tests compare against.
package udpemu

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/wire"
)

// maxDatagram bounds receive buffers; NetClone messages are single small
// packets (§3.7).
const maxDatagram = 2048

// sendTarget is one forwarding-table entry: the destination and — for
// a server on a remote rack — the one-way fabric delay to its rack and
// the delay line that holds packets for it.
type sendTarget struct {
	to    netip.AddrPort
	delay time.Duration
	dl    *delayLine // nil: send at once
}

// Switch is a UDP NetClone switch emulator — the client rack's ToR.
// Clients and servers exchange all traffic through its single socket.
// Every other rack's ToR only forwards at L3, so a server there is a
// direct destination whose packets wait out the fabric delay in one of
// the switch's rack lines.
type Switch struct {
	conn *net.UDPConn
	tr   transport

	mu      sync.Mutex
	dp      *dataplane.Switch
	servers map[uint16]sendTarget
	clients map[uint16]sendTarget

	faults *faultState                  // nil without a fault schedule; set before Serve
	racks  map[time.Duration]*delayLine // one line per distinct rack delay

	sendErrs   sendErrors
	lossDrops  atomic.Int64
	groupWraps atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewSwitch binds a switch emulator to addr (e.g. "127.0.0.1:0") with the
// given data-plane configuration. The optional mode pins the I/O path;
// the default is IOAuto.
func NewSwitch(addr string, cfg dataplane.Config, mode ...IOMode) (*Switch, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	io := IOAuto
	if len(mode) > 0 {
		io = mode[0]
	}
	tr, err := resolveIO(io, conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	dp, err := dataplane.New(cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Switch{
		conn:    conn,
		tr:      tr,
		dp:      dp,
		servers: make(map[uint16]sendTarget),
		clients: make(map[uint16]sendTarget),
		racks:   make(map[time.Duration]*delayLine),
		closed:  make(chan struct{}),
	}, nil
}

// Addr returns the switch socket address clients and servers dial.
func (s *Switch) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Batched reports whether this switch runs the recvmmsg/sendmmsg
// transport.
func (s *Switch) Batched() bool {
	_, portable := s.tr.(*portableConn)
	return !portable
}

// ServerRoute is one server's control-plane registration: its ID, its
// own socket, and — for a server on a remote rack — the one-way fabric
// delay between that rack's ToR and this one (zero for a directly
// attached server).
type ServerRoute struct {
	SID   uint16
	Addr  *net.UDPAddr
	Delay time.Duration
}

// InstallServers registers every route with the control plane in one
// data-plane install (one group-table build). The address-table entry
// is the server's UDP port; a remote server's forwarding entry carries
// its rack's delay and the line for that delay. Routes with equal
// delays share one line, which stays FIFO because its delay is
// constant.
func (s *Switch) InstallServers(routes []ServerRoute) error {
	entries := make([]dataplane.ServerEntry, len(routes))
	for i, r := range routes {
		entries[i] = dataplane.ServerEntry{SID: r.SID, Addr: uint32(r.Addr.Port)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.dp.InstallServers(entries); err != nil {
		return err
	}
	for _, r := range routes {
		t := sendTarget{to: addrPort(r.Addr)}
		if r.Delay > 0 {
			if s.racks[r.Delay] == nil {
				s.racks[r.Delay] = newDelayLine(s.conn, nil)
			}
			t.delay, t.dl = r.Delay, s.racks[r.Delay]
		}
		s.servers[r.SID] = t
	}
	return nil
}

// AddServer registers one directly attached worker server.
func (s *Switch) AddServer(sid uint16, addr *net.UDPAddr) error {
	return s.InstallServers([]ServerRoute{{SID: sid, Addr: addr}})
}

// RemoveServer removes a failed server (§3.6).
func (s *Switch) RemoveServer(sid uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dp.RemoveServer(sid)
	delete(s.servers, sid)
}

// NumGroups exposes the group-table size for clients picking group IDs.
func (s *Switch) NumGroups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dp.NumGroups()
}

// Stats snapshots the data-plane counters.
func (s *Switch) Stats() dataplane.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dp.Stats()
}

// SendErrors counts failed transmissions (satellite of DESIGN.md §12:
// previously discarded silently).
func (s *Switch) SendErrors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.sendErrs.Load()
	for _, dl := range s.racks {
		n += dl.lost()
	}
	return n
}

// LossDrops counts packets dropped by an active loss window.
func (s *Switch) LossDrops() int64 { return s.lossDrops.Load() }

// GroupWraps counts original requests whose Group is past the switch's
// group count. The data plane takes such a group modulo its count, so a
// client told the wrong count skews the pair choice without an error.
func (s *Switch) GroupWraps() int64 { return s.groupWraps.Load() }

// Serve processes packets until Close. It is typically run in a
// goroutine; it returns after Close. Each burst is one recv, one lock
// acquisition around the pipeline and one flush of what it forwards.
func (s *Switch) Serve() error {
	s.wg.Add(1)
	defer s.wg.Done()
	rng := s.newServeRNG()
	for {
		n, err := s.tr.recv()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		now := time.Now()
		lossP := s.faults.lossP(now)
		s.mu.Lock()
		for i := 0; i < n; i++ {
			if lossP > 0 && rng.Float64() < lossP {
				s.lossDrops.Add(1)
				continue
			}
			s.handle(i, now)
		}
		s.mu.Unlock()
		s.sendErrs.add(s.tr.flush())
	}
}

// newServeRNG seeds the serve goroutine's private RNG (loss draws)
// from the bound port, keeping the hot path free of shared state.
func (s *Switch) newServeRNG() *rand.Rand {
	return rand.New(rand.NewPCG(0xD0A7E11, uint64(s.Addr().Port)))
}

// handle runs the pipeline for burst slot i and queues the resulting
// sends into the write ring. Caller holds s.mu.
func (s *Switch) handle(i int, now time.Time) {
	pkt := s.tr.pkt(i)
	if !wire.IsNetClone(pkt) {
		return // non-NetClone traffic would take the plain L2/L3 path
	}
	var h wire.Header
	if _, err := h.Unmarshal(pkt); err != nil {
		return
	}
	payload := pkt[wire.HeaderLen:]

	// Learn the client's address from its requests so responses can be
	// routed back (the emulator's stand-in for L3 routing state), and
	// count a group past the group table (see GroupWraps).
	if h.Type == wire.TypeReq && h.Clo == wire.CloNone {
		if int(h.Group) >= s.dp.NumGroups() {
			s.groupWraps.Add(1)
		}
		if src := s.tr.src(i); src.IsValid() && s.clients[h.ClientID].to != src {
			s.clients[h.ClientID] = sendTarget{to: src}
		}
	}
	res := s.dp.Process(&h)

	// Recirculate clones immediately: the loopback port of the ASIC is a
	// second pipeline pass (§3.4).
	switch res.Act {
	case dataplane.ActForwardServer, dataplane.ActCloneAndForward:
		var cloneRes dataplane.Result
		cloneHdr := res.Clone
		if res.Act == dataplane.ActCloneAndForward {
			cloneRes = s.dp.Process(&cloneHdr)
		}
		if t, ok := s.servers[res.DstSID]; ok {
			s.emit(&h, payload, t, now)
		}
		if res.Act == dataplane.ActCloneAndForward && cloneRes.Act == dataplane.ActForwardServer {
			if t, ok := s.servers[cloneRes.DstSID]; ok {
				s.emit(&cloneHdr, payload, t, now)
			}
		}
	case dataplane.ActForwardClient:
		if t, ok := s.clients[h.ClientID]; ok {
			s.emit(&h, payload, t, now)
		}
	case dataplane.ActDrop, dataplane.ActPassL3:
	}
}

// emit encodes one packet into the next write slot and commits it (a
// full ring flushes itself), or, when the target's rack is remote,
// hands it to that rack's delay line due after the rack delay, and
// leaves the slot uncommitted.
func (s *Switch) emit(h *wire.Header, payload []byte, t sendTarget, now time.Time) {
	out := h.AppendTo(s.tr.wslot())
	out = append(out, payload...)
	if t.dl != nil {
		t.dl.enqueue(out, t.to, now.Add(t.delay), service{}) // copies; the slot stays free
		return
	}
	s.sendErrs.add(s.tr.commit(len(out), t.to))
}

// Close shuts the switch down and waits for Serve to return. It is
// idempotent.
func (s *Switch) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.conn.Close()
		s.wg.Wait()
		for _, dl := range s.racks {
			dl.close()
		}
	})
	s.wg.Wait()
	return err
}

// errClosed reports use after Close.
var errClosed = errors.New("udpemu: closed")

// String describes the switch for logs.
func (s *Switch) String() string {
	return fmt.Sprintf("netclone-switch(%s)", s.Addr())
}

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
// I/O runs in one of two modes (DESIGN.md §12): the portable per-packet
// net.UDPConn path, and — on Linux amd64/arm64 — a batched path that
// drains and flushes bursts of up to 32 packets per recvmmsg/sendmmsg
// syscall through preallocated rings, allocation-free in steady state.
// IOAuto picks the batched path when available; IOPortable pins the
// reference path the equivalence tests compare against.
package udpemu

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/wire"
)

// maxDatagram bounds receive buffers; NetClone messages are single small
// packets (§3.7).
const maxDatagram = 2048

// sendTarget is one forwarding-table entry: the portable address, the
// batch path's precomputed form, and — for servers behind a rack relay
// — the encapsulation the downlink hop needs.
type sendTarget struct {
	addr *net.UDPAddr
	pa   pktAddr
	paOK bool
	// encap servers live behind a relay: addr is the relay downlink and
	// each packet is prefixed with encapSID so the relay can route it
	// (see relayPreambleLen).
	encap    bool
	encapSID uint16
}

// newSendTarget precomputes both address forms.
func newSendTarget(addr *net.UDPAddr) *sendTarget {
	t := &sendTarget{addr: addr}
	t.pa, t.paOK = makePktAddr(addr)
	return t
}

// Switch is a UDP NetClone switch emulator — the client rack's ToR.
// Clients and servers exchange all traffic through its single socket;
// servers on remote racks are reached through their rack's Relay.
type Switch struct {
	conn *net.UDPConn
	bc   *batchConn // nil on the portable path

	mu      sync.Mutex
	dp      *dataplane.Switch
	servers map[uint16]*sendTarget
	clients map[uint16]*sendTarget

	faults *faultState // nil without a fault schedule
	dl     *delayLine  // jitter egress; nil until a schedule needs it

	// scratch marshals delayed (jittered) packets; owned by the serve
	// goroutine.
	scratch [maxDatagram + relayPreambleLen]byte

	sendErrs  atomic.Int64
	lossDrops atomic.Int64

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
	bc, err := resolveIO(io, conn)
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
		bc:      bc,
		dp:      dp,
		servers: make(map[uint16]*sendTarget),
		clients: make(map[uint16]*sendTarget),
		closed:  make(chan struct{}),
	}, nil
}

// Addr returns the switch socket address clients and servers dial.
func (s *Switch) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Batched reports whether this switch runs the recvmmsg/sendmmsg path.
func (s *Switch) Batched() bool { return s.bc != nil }

// ServerRoute is one server's control-plane registration: its ID, its
// own socket, and — for a server on a remote rack — the downlink of the
// rack relay it is reached through (nil for a directly attached server).
type ServerRoute struct {
	SID       uint16
	Addr      *net.UDPAddr
	RelayDown *net.UDPAddr
}

// InstallServers registers every route with the control plane in one
// data-plane install (one group-table build). The address-table entry
// is the server's UDP port; a relayed server's forwarding entry points
// at the relay downlink with the server's ID as the encapsulation
// preamble.
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
		if r.RelayDown == nil {
			s.servers[r.SID] = newSendTarget(r.Addr)
			continue
		}
		t := newSendTarget(r.RelayDown)
		t.encap, t.encapSID = true, r.SID
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
	n := s.sendErrs.Load()
	if s.dl != nil {
		n += s.dl.sendErrs.Load() + s.dl.overflows.Load()
	}
	return n
}

// LossDrops counts packets dropped by an active loss window.
func (s *Switch) LossDrops() int64 { return s.lossDrops.Load() }

// setFaultState arms the socket-expressible fault gates. Call before
// Serve.
func (s *Switch) setFaultState(f *faultState) {
	s.faults = f
	if f != nil && len(f.sched.Jitter) > 0 {
		s.dl = newDelayLine(func(b []byte, to *net.UDPAddr) error {
			_, err := s.conn.WriteToUDP(b, to)
			return err
		})
	}
}

// Serve processes packets until Close. It is typically run in a
// goroutine; it returns after Close.
func (s *Switch) Serve() error {
	if s.bc != nil {
		return s.serveBatch()
	}
	return s.servePortable()
}

// servePortable is the per-packet reference loop: one ReadFromUDP and
// one WriteToUDP syscall per datagram, exactly the pre-batching I/O
// discipline.
func (s *Switch) servePortable() error {
	s.wg.Add(1)
	defer s.wg.Done()
	rng := s.newServeRNG()
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		now := time.Now()
		if p := s.faults.lossP(now); p > 0 && rng.Float64() < p {
			s.lossDrops.Add(1)
			continue
		}
		s.handlePacket(buf[:n], from, now, rng)
	}
}

// serveBatch drains bursts of up to ioBurst datagrams per recvmmsg,
// runs the pipeline under one lock acquisition per burst, and flushes
// the accumulated sends with sendmmsg. No allocation in steady state.
func (s *Switch) serveBatch() error {
	s.wg.Add(1)
	defer s.wg.Done()
	rng := s.newServeRNG()
	for {
		n, err := s.bc.recv()
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
			s.handleBatch(i, now, rng)
		}
		s.mu.Unlock()
		dropped, _ := s.bc.flush()
		if dropped > 0 {
			s.sendErrs.Add(int64(dropped))
		}
	}
}

// newServeRNG seeds the serve goroutine's private RNG (loss draws,
// jitter draws) from the bound port, keeping the hot path free of
// shared state.
func (s *Switch) newServeRNG() *rand.Rand {
	return rand.New(rand.NewPCG(0xD0A7E11, uint64(s.Addr().Port)))
}

// handlePacket decodes, runs the pipeline, and forwards — the portable
// path.
func (s *Switch) handlePacket(pkt []byte, from *net.UDPAddr, now time.Time, rng *rand.Rand) {
	if !wire.IsNetClone(pkt) {
		return // non-NetClone traffic would take the plain L2/L3 path
	}
	var h wire.Header
	if _, err := h.Unmarshal(pkt); err != nil {
		return
	}
	payload := pkt[wire.HeaderLen:]

	s.mu.Lock()
	// Learn the client's address from its requests so responses can be
	// routed back (the emulator's stand-in for L3 routing state).
	if h.Type == wire.TypeReq && h.Clo == wire.CloNone {
		if known := s.clients[h.ClientID]; known == nil || !udpAddrEqual(known.addr, from) {
			s.clients[h.ClientID] = newSendTarget(cloneUDPAddr(from))
		}
	}
	res := s.dp.Process(&h)

	// Recirculate clones immediately: the loopback port of the ASIC is a
	// second pipeline pass (§3.4).
	var cloneRes dataplane.Result
	var cloneHdr wire.Header
	hasClone := false
	if res.Act == dataplane.ActCloneAndForward {
		cloneHdr = res.Clone
		cloneRes = s.dp.Process(&cloneHdr)
		hasClone = cloneRes.Act == dataplane.ActForwardServer
	}
	dstServer := s.servers[res.DstSID]
	cloneServer := s.servers[cloneRes.DstSID]
	dstClient := s.clients[h.ClientID]
	s.mu.Unlock()

	switch res.Act {
	case dataplane.ActForwardServer, dataplane.ActCloneAndForward:
		if dstServer != nil {
			s.send(&h, payload, dstServer, now, rng)
		}
		if hasClone && cloneServer != nil {
			s.send(&cloneHdr, payload, cloneServer, now, rng)
		}
	case dataplane.ActForwardClient:
		if dstClient != nil {
			s.send(&h, payload, dstClient, now, rng)
		}
	case dataplane.ActDrop, dataplane.ActPassL3:
	}
}

// handleBatch runs the pipeline for receive-ring slot i and queues the
// resulting sends into the write ring. Caller holds s.mu.
func (s *Switch) handleBatch(i int, now time.Time, rng *rand.Rand) {
	pkt := s.bc.pkt(i)
	if !wire.IsNetClone(pkt) {
		return
	}
	var h wire.Header
	if _, err := h.Unmarshal(pkt); err != nil {
		return
	}
	payload := pkt[wire.HeaderLen:]

	if h.Type == wire.TypeReq && h.Clo == wire.CloNone {
		if src, ok := s.bc.src(i); ok {
			if known := s.clients[h.ClientID]; known == nil || !known.paOK || known.pa != src {
				s.clients[h.ClientID] = &sendTarget{addr: src.udpAddr(), pa: src, paOK: true}
			}
		}
	}
	res := s.dp.Process(&h)
	var cloneRes dataplane.Result
	var cloneHdr wire.Header
	hasClone := false
	if res.Act == dataplane.ActCloneAndForward {
		cloneHdr = res.Clone
		cloneRes = s.dp.Process(&cloneHdr)
		hasClone = cloneRes.Act == dataplane.ActForwardServer
	}

	switch res.Act {
	case dataplane.ActForwardServer, dataplane.ActCloneAndForward:
		if t := s.servers[res.DstSID]; t != nil {
			s.emitBatch(&h, payload, t, now, rng)
		}
		if hasClone {
			if t := s.servers[cloneRes.DstSID]; t != nil {
				s.emitBatch(&cloneHdr, payload, t, now, rng)
			}
		}
	case dataplane.ActForwardClient:
		if t := s.clients[h.ClientID]; t != nil {
			s.emitBatch(&h, payload, t, now, rng)
		}
	case dataplane.ActDrop, dataplane.ActPassL3:
	}
}

// emitBatch queues one packet into the write ring (flushing when it
// fills), or detours through the jitter delay line when a window is
// active.
func (s *Switch) emitBatch(h *wire.Header, payload []byte, t *sendTarget, now time.Time, rng *rand.Rand) {
	if extra := s.faults.jitter(now, rng); extra > 0 && s.dl != nil {
		s.emitDelayed(h, payload, t, now.Add(extra))
		return
	}
	if !t.paOK {
		s.sendPortable(h, payload, t)
		return
	}
	out := s.bc.wslot()
	if t.encap {
		out = append(out, byte(t.encapSID), byte(t.encapSID>>8))
	}
	out = h.AppendTo(out)
	out = append(out, payload...)
	dropped, _ := s.bc.commit(len(out), t.pa)
	if dropped > 0 {
		s.sendErrs.Add(int64(dropped))
	}
}

// send transmits one packet on the portable path, with the jitter
// detour shared with the batch path.
func (s *Switch) send(h *wire.Header, payload []byte, t *sendTarget, now time.Time, rng *rand.Rand) {
	if extra := s.faults.jitter(now, rng); extra > 0 && s.dl != nil {
		s.emitDelayed(h, payload, t, now.Add(extra))
		return
	}
	s.sendPortable(h, payload, t)
}

// sendPortable re-encodes the (possibly rewritten) header and
// transmits with one WriteToUDP — the reference send. Failures are
// counted, not discarded.
func (s *Switch) sendPortable(h *wire.Header, payload []byte, t *sendTarget) {
	out := make([]byte, 0, relayPreambleLen+wire.HeaderLen+len(payload))
	if t.encap {
		out = append(out, byte(t.encapSID), byte(t.encapSID>>8))
	}
	out = h.AppendTo(out)
	out = append(out, payload...)
	if _, err := s.conn.WriteToUDP(out, t.addr); err != nil {
		s.sendErrs.Add(1)
	}
}

// emitDelayed marshals into the serve goroutine's scratch buffer and
// hands the packet to the jitter delay line.
func (s *Switch) emitDelayed(h *wire.Header, payload []byte, t *sendTarget, due time.Time) {
	out := s.scratch[:0]
	if t.encap {
		out = append(out, byte(t.encapSID), byte(t.encapSID>>8))
	}
	out = h.AppendTo(out)
	out = append(out, payload...)
	s.dl.enqueue(out, t.addr, due)
}

// Close shuts the switch down and waits for Serve to return. It is
// idempotent.
func (s *Switch) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.conn.Close()
		s.wg.Wait()
		if s.dl != nil {
			s.dl.close()
		}
	})
	s.wg.Wait()
	return err
}

func cloneUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	ip := make(net.IP, len(a.IP))
	copy(ip, a.IP)
	return &net.UDPAddr{IP: ip, Port: a.Port, Zone: a.Zone}
}

func udpAddrEqual(a, b *net.UDPAddr) bool {
	return a.Port == b.Port && a.IP.Equal(b.IP)
}

// errClosed reports use after Close.
var errClosed = errors.New("udpemu: closed")

// String describes the switch for logs.
func (s *Switch) String() string {
	return fmt.Sprintf("netclone-switch(%s)", s.Addr())
}

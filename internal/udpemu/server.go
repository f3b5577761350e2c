package udpemu

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/kvstore"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// ServerConfig parameterizes a UDP worker server.
type ServerConfig struct {
	// SID is the server's NetClone ID, registered at the switch.
	SID uint16
	// Workers is the number of service slots the server models (§4.2's
	// worker threads): at most Workers requests are in service at once.
	Workers int
	// QueueCap bounds the requests waiting for a slot; a request that
	// finds QueueCap waiting is dropped.
	QueueCap int
	// Store backs GET/SCAN/SET operations. Nil means a small default
	// store.
	Store *kvstore.Store
	// ExtraServiceTime, when positive, is each request's service time on
	// its slot: its response leaves when the service ends.
	ExtraServiceTime time.Duration
	// IO selects the syscall discipline (default IOAuto; DESIGN.md
	// §12).
	IO IOMode
}

// Server is a UDP worker server with NetClone state piggybacking and the
// cloned-request drop guard (§3.4, §4.2). One loop serves each receive
// burst to completion: it admits, executes and answers every request,
// then flushes the answers in one write. The worker pool is an exact
// FCFS model of Workers slots, so with a service time each response
// waits on the server's service line until its service ends, and
// reports the load the server has then.
type Server struct {
	cfg    ServerConfig
	conn   *net.UDPConn
	tr     transport
	swAddr netip.AddrPort
	store  *kvstore.Store

	// pool is the worker slots in nanoseconds since base, and epoch the
	// crash count the loop last saw; all three belong to the loop.
	// admitted counts the requests admitted so far, which the service
	// line reads.
	pool     dataplane.FCFS[struct{}]
	base     time.Time
	epoch    int32
	admitted atomic.Int64

	// svc holds each response until its service ends (ExtraServiceTime
	// > 0) and up for the fabric delay upDelay on a remote rack
	// (delayUplink), after svc when there are both; a server without
	// either answers at once.
	svc     *delayLine
	up      *delayLine
	upDelay time.Duration

	closed    chan struct{}
	closeOnce sync.Once

	// down marks a crash window (FaultSchedule): arriving packets are
	// dropped until recovery. crashes records when each window began.
	down    atomic.Bool
	crashes crashLog

	processed  atomic.Int64 // answered, send errors included
	cloneDrops atomic.Int64
	crashDrops atomic.Int64
	queueDrops atomic.Int64
	sendErrs   sendErrors
}

// NewServer binds a worker server to addr and targets the given switch.
func NewServer(addr string, swAddr *net.UDPAddr, cfg ServerConfig) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	tr, err := resolveIO(cfg.IO, conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = kvstore.NewStore(1024)
	}
	s := &Server{
		cfg:    cfg,
		conn:   conn,
		tr:     tr,
		swAddr: addrPort(swAddr),
		store:  store,
		base:   time.Now(),
		closed: make(chan struct{}),
	}
	s.pool.Init(make([]int64, cfg.Workers), nil)
	if cfg.ExtraServiceTime > 0 {
		s.svc = newDelayLine(conn, &s.crashes)
		s.svc.depart = s.depart
	}
	return s, nil
}

// Addr returns the server's bound address for switch registration.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Processed returns the number of requests served: answered, and not
// lost to a failed send or a crash.
func (s *Server) Processed() int64 {
	return s.processed.Load() - s.SendErrors() - s.crashes.lost.Load()
}

// CloneDrops returns the number of cloned requests dropped by the
// stale-state guard.
func (s *Server) CloneDrops() int64 { return s.cloneDrops.Load() }

// CrashDrops returns the number of requests a crash window lost: those
// that arrived while the server was down and those whose service a
// crash cut short.
func (s *Server) CrashDrops() int64 { return s.crashDrops.Load() + s.crashes.lost.Load() }

// QueueDrops returns the number of requests discarded because QueueCap
// requests were already waiting.
func (s *Server) QueueDrops() int64 { return s.queueDrops.Load() }

// SendErrors returns the number of failed response transmissions.
func (s *Server) SendErrors() int64 { return s.sendErrs.Load() + s.svc.lost() + s.up.lost() }

// delayUplink places the server on a remote rack: every response waits
// out the one-way fabric delay d on the server's own socket before it
// leaves. The delay stays on this side of the fabric so that the switch
// reads the piggybacked state as old as the fabric makes it (§3.3–3.4).
// Call before Serve.
func (s *Server) delayUplink(d time.Duration) {
	s.up, s.upDelay = newDelayLine(s.conn, &s.crashes), d
}

// SetDown flips the crash-window state (the cluster's fault executor
// drives it). A crash loses the work in service: a response whose
// service would have ended after the crash never leaves, and recovery
// starts with every slot free.
func (s *Server) SetDown(down bool) {
	if !s.down.Swap(down) && down {
		s.crashes.at.Store(time.Now().UnixNano())
		s.crashes.n.Add(1)
	}
}

// Serve runs the server's loop over the transport's receive bursts; it
// returns after Close, once the delay lines have sent or dropped what
// they held.
func (s *Server) Serve() error {
	defer s.up.close()
	defer s.svc.close() // first: it feeds up
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
		s.serveBurst(n)
	}
}

// serveBurst serves the n datagrams of the latest receive burst and
// flushes the responses that are due at once.
func (s *Server) serveBurst(n int) {
	now := time.Now()
	if e := s.crashes.n.Load(); e != s.epoch {
		s.pool.Reset(0, nil) // the crash ended the services in progress
		s.epoch = e
	}
	answered := 0
	for i := 0; i < n; i++ {
		if s.serve(s.tr.pkt(i), now, n, answered) {
			answered++
		}
	}
	s.processed.Add(int64(answered))
	s.sendErrs.add(s.tr.flush())
}

// serve answers one request of an n-datagram burst received at now,
// after the burst's ahead requests it admitted, and reports whether it
// did: the crash window, the clone guard and the queue bound first, then
// the operation, then the response, committed to the write ring or held
// on a delay line until it is due.
func (s *Server) serve(pkt []byte, now time.Time, n, ahead int) bool {
	var h wire.Header
	if _, err := h.Unmarshal(pkt); err != nil || h.Type != wire.TypeReq {
		return false
	}
	if s.down.Load() {
		s.crashDrops.Add(1)
		return false
	}
	waiting := s.waiting(now, ahead)
	if !dataplane.AdmitRequest(h.Clo, waiting, true) {
		s.cloneDrops.Add(1)
		return false
	}
	if waiting >= s.cfg.QueueCap {
		// Queue overflow: drop, as a real server NIC queue would.
		s.queueDrops.Add(1)
		return false
	}
	sv := service{finish: s.start(now), epoch: s.epoch, seq: s.admitted.Add(1) - 1}

	out := s.tr.wslot()[:wire.HeaderLen+kvstore.ValueSize]
	m := s.execute(pkt[wire.HeaderLen:], out[wire.HeaderLen:])
	out = out[:wire.HeaderLen+m]
	h.Type, h.SID, h.PayloadLen = wire.TypeResp, s.cfg.SID, uint16(m)
	h.State = dataplane.ServerState(waiting, n-s.cfg.Workers)
	h.MarshalTo(out) //nolint:errcheck // out holds a header
	switch {
	case s.svc != nil: // depart stamps the load anew
		s.svc.enqueue(out, s.swAddr, sv.finish, sv) // copies; the slot stays free
	case s.up != nil:
		s.up.enqueue(out, s.swAddr, sv.finish.Add(s.upDelay), sv)
	default:
		s.sendErrs.add(s.tr.commit(len(out), s.swAddr))
	}
	return true
}

// depart sends a held response as its service ends, stamped with the
// load then: the requests admitted after it beyond the other Workers − 1
// slots, the one taking over its slot included, as the simulator's
// server reads its queue before it pulls the next.
func (s *Server) depart(p *delayBuf) error {
	var h wire.Header
	h.Unmarshal(p.b[:p.n]) //nolint:errcheck // serve encoded it
	h.State = dataplane.ServerState(int(s.admitted.Load()-p.seq)-s.cfg.Workers, 0)
	h.MarshalTo(p.b[:]) //nolint:errcheck // p.b holds a header
	if s.up != nil {
		s.up.enqueue(p.b[:p.n], p.to, p.finish.Add(s.upDelay), p.service)
		return nil
	}
	_, err := s.svc.conn.WriteToUDPAddrPort(p.b[:p.n], p.to)
	return err
}

// waiting counts the admitted requests whose service has not started at
// now. Without a service time, the burst's requests arrive together: of
// the ahead admitted before this one, those beyond the Workers in
// service are waiting.
func (s *Server) waiting(now time.Time, ahead int) int {
	if s.cfg.ExtraServiceTime <= 0 {
		return max(0, ahead-s.cfg.Workers)
	}
	return s.pool.Waiting(int64(now.Sub(s.base)))
}

// start places a request admitted at now on the pool and returns when
// its service ends.
func (s *Server) start(now time.Time) time.Time {
	t := int64(now.Sub(s.base))
	end := s.pool.Admit(t, t, struct{}{}) + int64(s.cfg.ExtraServiceTime)
	s.pool.Hold(end)
	return s.base.Add(time.Duration(end))
}

// execute runs a request's operation against the store and writes its
// answer, at most one value, into out; it returns the answer's length.
func (s *Server) execute(req, out []byte) int {
	op, rank, span, val, err := wire.DecodeOp(req)
	if err != nil {
		return 0
	}
	switch workload.OpKind(op) {
	case workload.OpGet:
		return s.store.Get(rank, out)
	case workload.OpScan:
		if span == 0 {
			span = workload.ScanSpan
		}
		sum, _ := s.store.Scan(rank, int(span))
		clear(out[:8])
		out[0] = byte(sum >> 56) // surface the checksum so the read is not elided
		return 8
	case workload.OpSet:
		s.store.Set(rank, val)
	}
	return 0
}

// Close stops the server; Serve returns once the delay lines are done. It
// is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.conn.Close()
	})
	return err
}

// crashLog is a server's crash record, shared with its delay lines.
type crashLog struct {
	n    atomic.Int32 // crashes so far
	at   atomic.Int64 // when the latest began, in Unix nanoseconds
	lost atomic.Int64 // held responses whose service a crash cut short
}

// cut reports whether the service sv, admitted after sv.epoch crashes
// and ending at sv.finish, was cut short by the next crash. Two crashes
// since its admission count as one before its end. A nil log cuts
// nothing.
func (l *crashLog) cut(sv service) bool {
	if l == nil {
		return false
	}
	n := l.n.Load()
	return n != sv.epoch && (n-sv.epoch > 1 || l.at.Load() < sv.finish.UnixNano())
}

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
	// Workers is the number of worker goroutines draining the request
	// queue (§4.2's worker threads).
	Workers int
	// QueueCap bounds the dispatcher's FCFS queue.
	QueueCap int
	// Store backs GET/SCAN/SET operations. Nil means a small default
	// store.
	Store *kvstore.Store
	// ExtraServiceTime, when positive, adds busy time per request to
	// emulate heavier application work in examples.
	ExtraServiceTime time.Duration
	// IO selects the syscall discipline (default IOAuto; DESIGN.md
	// §12).
	IO IOMode
}

// inlinePayload covers every internal request payload (an op header
// plus at most one kvstore value) so steady-state dispatch copies into
// the job value instead of allocating. Larger payloads — possible only
// from external senders — take a rare allocating path.
const inlinePayload = wire.OpHeaderLen + kvstore.ValueSize + 16

// Server is a UDP worker server: a dispatcher goroutine feeding a FCFS
// queue drained by worker goroutines, with NetClone state piggybacking
// and the cloned-request drop guard (§3.4, §4.2). The dispatcher drains
// the transport's receive bursts, and workers hand answered responses
// by value to an egress goroutine that encodes them into its write ring.
type Server struct {
	cfg    ServerConfig
	conn   *net.UDPConn
	tr     transport
	swAddr netip.AddrPort
	store  *kvstore.Store

	queue  chan serverJob
	egress chan serverResp

	// up holds responses for the fabric delay upDelay on a remote
	// rack; nil on the client rack (delayUplink).
	up      *delayLine
	upDelay time.Duration

	workersWG sync.WaitGroup
	egressWG  sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// down marks a crash window (FaultSchedule): arriving packets are
	// dropped and queued work is discarded until recovery.
	down atomic.Bool
	// lastBurst is the size of the dispatcher's latest receive burst:
	// what it found waiting in the socket (DESIGN.md §12).
	lastBurst atomic.Int32

	processed  atomic.Int64
	cloneDrops atomic.Int64
	crashDrops atomic.Int64
	queueDrops atomic.Int64
	sendErrs   atomic.Int64
}

type serverJob struct {
	hdr wire.Header
	n   int
	buf [inlinePayload]byte
	big []byte // overflow payload; nil on the steady path
}

func (j *serverJob) payload() []byte {
	if j.big != nil {
		return j.big
	}
	return j.buf[:j.n]
}

// serverResp is one answered request awaiting the egress loop: the
// response header and a payload of at most one kvstore value.
type serverResp struct {
	hdr     wire.Header
	n       int
	payload [kvstore.ValueSize]byte
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
	return &Server{
		cfg:    cfg,
		conn:   conn,
		tr:     tr,
		swAddr: addrPort(swAddr),
		store:  store,
		queue:  make(chan serverJob, cfg.QueueCap),
		// Workers block on a full egress channel, so its capacity
		// bounds the answered responses not yet in the write ring:
		// every worker's next response plus two rings.
		egress: make(chan serverResp, cfg.Workers+2*ioBurst),
		closed: make(chan struct{}),
	}, nil
}

// Addr returns the server's bound address for switch registration.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Processed returns the number of requests served.
func (s *Server) Processed() int64 { return s.processed.Load() }

// CloneDrops returns the number of cloned requests dropped by the
// stale-state guard.
func (s *Server) CloneDrops() int64 { return s.cloneDrops.Load() }

// CrashDrops returns the number of packets and queued jobs discarded
// while a crash window held the server down.
func (s *Server) CrashDrops() int64 { return s.crashDrops.Load() }

// QueueDrops returns the number of requests discarded because the
// dispatcher's queue was full.
func (s *Server) QueueDrops() int64 { return s.queueDrops.Load() }

// SendErrors returns the number of failed response transmissions.
func (s *Server) SendErrors() int64 { return s.sendErrs.Load() + s.up.lost() }

// delayUplink places the server on a remote rack: every response waits
// out the one-way fabric delay d on the server's own socket before it
// leaves. The delay stays on this side of the fabric so that the switch
// reads the piggybacked state as old as the fabric makes it (§3.3–3.4).
// Call before Serve.
func (s *Server) delayUplink(d time.Duration) {
	s.up, s.upDelay = newDelayLine(s.conn), d
}

// SetDown flips the crash-window state (the cluster's fault executor
// drives it). Going down discards what is already queued — the crash
// loses in-flight work; recovery starts empty.
func (s *Server) SetDown(down bool) { s.down.Store(down) }

// Serve starts the workers and the egress loop, then runs the
// dispatcher over the transport's receive bursts; it returns after
// Close.
func (s *Server) Serve() error {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	s.egressWG.Add(1)
	go s.egressLoop()
	for {
		n, err := s.tr.recv()
		if err != nil {
			return s.shutdown(err)
		}
		s.lastBurst.Store(int32(n))
		for i := 0; i < n; i++ {
			s.dispatch(s.tr.pkt(i))
		}
	}
}

// shutdown drains the worker and egress pipelines after the ingress
// loop ends.
func (s *Server) shutdown(readErr error) error {
	close(s.queue)
	s.workersWG.Wait()
	close(s.egress)
	s.egressWG.Wait()
	s.up.close()
	select {
	case <-s.closed:
		return nil
	default:
		return readErr
	}
}

// dispatch is the dispatcher thread: validate, apply the crash window
// and the clone guard, enqueue.
func (s *Server) dispatch(pkt []byte) {
	var h wire.Header
	if _, err := h.Unmarshal(pkt); err != nil || h.Type != wire.TypeReq {
		return
	}
	if s.down.Load() {
		s.crashDrops.Add(1)
		return
	}
	if !dataplane.AdmitRequest(h.Clo, len(s.queue), true) {
		s.cloneDrops.Add(1)
		return
	}
	job := serverJob{hdr: h}
	payload := pkt[wire.HeaderLen:]
	if len(payload) <= inlinePayload {
		job.n = copy(job.buf[:], payload)
	} else {
		job.big = append([]byte(nil), payload...)
	}
	select {
	case s.queue <- job:
	default:
		// Queue overflow: drop, as a real server NIC queue would.
		s.queueDrops.Add(1)
	}
}

// worker drains the queue, executes operations against the store, and
// responds through the switch with piggybacked queue state.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for job := range s.queue {
		if s.down.Load() {
			// The crash loses queued work; nothing is executed or
			// answered.
			s.crashDrops.Add(1)
			continue
		}
		var r serverResp
		op, rank, span, val, err := wire.DecodeOp(job.payload())
		if err == nil {
			switch workload.OpKind(op) {
			case workload.OpGet:
				r.n = s.store.Get(rank, r.payload[:])
			case workload.OpScan:
				if span == 0 {
					span = workload.ScanSpan
				}
				sum, _ := s.store.Scan(rank, int(span))
				r.payload[0] = byte(sum >> 56) // surface the checksum so the read is not elided
				r.n = 8
			case workload.OpSet:
				s.store.Set(rank, val)
			}
		}
		if s.cfg.ExtraServiceTime > 0 {
			time.Sleep(s.cfg.ExtraServiceTime)
		}

		r.hdr = job.hdr
		r.hdr.Type = wire.TypeResp
		r.hdr.SID = s.cfg.SID
		r.hdr.State = dataplane.ServerState(len(s.queue), int(s.lastBurst.Load())-s.cfg.Workers)
		r.hdr.PayloadLen = uint16(r.n)
		s.egress <- r
	}
}

// egressLoop encodes answered responses into the write ring and
// flushes them: one blocking take, then everything already waiting, up
// to the ring size per flush.
func (s *Server) egressLoop() {
	defer s.egressWG.Done()
	for r := range s.egress {
		batched := 1
		s.commitResp(&r)
	fill:
		for batched < ioBurst {
			select {
			case more, ok := <-s.egress:
				if !ok {
					break fill
				}
				s.commitResp(&more)
				batched++
			default:
				break fill
			}
		}
		dropped, _ := s.tr.flush()
		if dropped > 0 {
			s.sendErrs.Add(int64(dropped))
		}
		s.processed.Add(int64(batched - dropped))
	}
}

// commitResp encodes one answered response into the next write slot,
// or, on a remote rack, hands it to the uplink line and leaves the slot
// uncommitted.
func (s *Server) commitResp(r *serverResp) {
	slot := r.hdr.AppendTo(s.tr.wslot())
	slot = append(slot, r.payload[:r.n]...)
	if s.up != nil {
		s.up.enqueue(slot, s.swAddr, time.Now().Add(s.upDelay)) // copies
		return
	}
	if dropped, _ := s.tr.commit(len(slot), s.swAddr); dropped > 0 {
		s.sendErrs.Add(int64(dropped))
		s.processed.Add(int64(-dropped)) // dropped mid-fill: keep the count honest
	}
}

// Close stops the server and waits for workers to drain. It is
// idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.conn.Close()
	})
	return err
}

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

	"netclone/internal/stats"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// ClientConfig parameterizes a measuring UDP client.
type ClientConfig struct {
	// ClientID identifies this client in the NetClone header.
	ClientID uint16
	// FilterTables is the switch's filter-table count; the client
	// randomizes the IDX field over it (§3.5).
	FilterTables int
	// Timeout bounds the wait for each response.
	Timeout time.Duration
	// Seed drives group and IDX randomization.
	Seed uint64
	// IO selects the syscall discipline (default IOAuto; DESIGN.md
	// §12).
	IO IOMode
}

// Client issues NetClone requests through a switch and records response
// latencies. It is safe for use by one goroutine issuing requests while a
// background receiver handles responses.
type Client struct {
	cfg    ClientConfig
	conn   *net.UDPConn
	tr     transport // the write ring belongs to the issuing goroutine
	swAddr netip.AddrPort
	rng    *rand.Rand

	mu          sync.Mutex
	pending     map[uint32]chan []byte
	openPending map[uint32]time.Time
	// abandoned remembers requests given up on (timeouts, open-loop
	// stragglers past the drain), so their late responses are ignored
	// instead of miscounted as redundant duplicates.
	abandoned map[uint32]struct{}
	nextSeq   uint32
	redundant int64
	openDone  atomic.Int64
	sendErrs  sendErrors

	hist      *stats.Histogram
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewClient creates a client bound to an ephemeral port, targeting the
// switch at swAddr.
func NewClient(swAddr *net.UDPAddr, cfg ClientConfig) (*Client, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	if cfg.FilterTables <= 0 {
		cfg.FilterTables = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	tr, err := resolveIO(cfg.IO, conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return newClient(conn, tr, addrPort(swAddr), cfg), nil
}

// newClient starts a client's receiver on tr, which moves the packets
// of conn; Close closes conn.
func newClient(conn *net.UDPConn, tr transport, swAddr netip.AddrPort, cfg ClientConfig) *Client {
	c := &Client{
		cfg:         cfg,
		conn:        conn,
		tr:          tr,
		swAddr:      swAddr,
		rng:         rand.New(rand.NewPCG(cfg.Seed, 0xC11E47)),
		pending:     make(map[uint32]chan []byte),
		openPending: make(map[uint32]time.Time),
		abandoned:   make(map[uint32]struct{}),
		hist:        stats.NewHistogram(),
		closed:      make(chan struct{}),
	}
	c.wg.Add(1)
	go c.receiver()
	return c
}

// SendErrors returns the number of request datagrams the transport
// failed to send. A failed open-loop send is counted here and the run
// goes on; a failed Do also returns the error.
func (c *Client) SendErrors() int64 { return c.sendErrs.Load() }

// receiver drains the transport's receive bursts, settling pending
// requests and counting redundant (unfiltered duplicate) responses.
// Open-loop settling touches only the histogram and counters, so the
// steady path stays allocation-free; only a closed-loop response copies
// its payload out of the burst.
func (c *Client) receiver() {
	defer c.wg.Done()
	for {
		n, err := c.tr.recv()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			c.settle(c.tr.pkt(i))
		}
	}
}

// send encodes one request into the write ring. The ring flushes itself
// when full; a failed send is counted and returned.
func (c *Client) send(h *wire.Header, op workload.OpKind, rank uint64, span uint16, value []byte) error {
	slot := c.tr.wslot()
	slot = h.AppendTo(slot)
	slot = wire.AppendOp(slot, uint8(op), rank, span, value)
	return c.sendErrs.add(c.tr.commit(len(slot), c.swAddr))
}

// flush sends what the write ring holds, counting failures.
func (c *Client) flush() error { return c.sendErrs.add(c.tr.flush()) }

// settle routes one received datagram to its waiting request.
func (c *Client) settle(pkt []byte) {
	var h wire.Header
	if _, err := h.Unmarshal(pkt); err != nil || h.Type != wire.TypeResp {
		return
	}
	c.mu.Lock()
	ch, ok := c.pending[h.ClientSeq]
	var payload []byte
	switch {
	case ok:
		delete(c.pending, h.ClientSeq)
		payload = make([]byte, len(pkt)-wire.HeaderLen)
		copy(payload, pkt[wire.HeaderLen:])
	case c.settleOpenLoop(h.ClientSeq):
	case c.forget(h.ClientSeq):
		// Straggler of an abandoned request, not a duplicate.
	default:
		c.redundant++
	}
	c.mu.Unlock()
	if ok {
		ch <- payload
	}
}

// Do issues one operation with a random group and waits for the first
// response. It returns the response payload.
func (c *Client) Do(numGroups int, op workload.OpKind, rank uint64, span uint16, value []byte) ([]byte, error) {
	c.mu.Lock()
	seq := c.nextSeq
	c.nextSeq++
	ch := make(chan []byte, 1)
	c.pending[seq] = ch
	group := uint16(c.rng.IntN(maxIntU(numGroups, 1)))
	idx := uint8(c.rng.IntN(c.cfg.FilterTables))
	c.mu.Unlock()

	h := wire.Header{
		Type:      wire.TypeReq,
		Group:     group,
		Idx:       idx,
		ClientID:  c.cfg.ClientID,
		ClientSeq: seq,
		PktTotal:  1,
	}
	if wire.HeaderLen+wire.OpHeaderLen+len(value) > maxDatagram {
		c.abandon(seq)
		return nil, errTooLarge
	}
	start := time.Now()
	err := c.send(&h, op, rank, span, value)
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		c.abandon(seq)
		return nil, err
	}
	select {
	case payload := <-ch:
		c.mu.Lock()
		c.hist.Record(time.Since(start).Nanoseconds())
		c.mu.Unlock()
		return payload, nil
	case <-time.After(c.cfg.Timeout):
		c.abandon(seq)
		return nil, fmt.Errorf("udpemu: request %d timed out after %v", seq, c.cfg.Timeout)
	case <-c.closed:
		c.abandon(seq)
		return nil, errClosed
	}
}

// errTooLarge rejects a request that does not fit one datagram.
var errTooLarge = errors.New("udpemu: request does not fit one datagram")

// maxAbandoned bounds the abandoned-sequence memory: most abandoned
// requests were genuinely lost and their entries would otherwise
// accumulate forever in long-lived clients. On overflow the set resets —
// stragglers of the forgotten entries may then count as redundant, a
// bounded accuracy trade for bounded memory.
const maxAbandoned = 1 << 13

// abandon drops a pending entry (timeout or error path) and remembers
// the sequence so a late response is ignored, not counted redundant.
func (c *Client) abandon(seq uint32) {
	c.mu.Lock()
	if len(c.abandoned) >= maxAbandoned {
		c.abandoned = make(map[uint32]struct{})
	}
	delete(c.pending, seq)
	c.abandoned[seq] = struct{}{}
	c.mu.Unlock()
}

// forget consumes an abandoned-sequence entry. Caller holds c.mu.
func (c *Client) forget(seq uint32) bool {
	if _, ok := c.abandoned[seq]; !ok {
		return false
	}
	delete(c.abandoned, seq)
	return true
}

// Latency summarizes the latencies of completed requests.
func (c *Client) Latency() stats.Summary { return c.hist.Summarize() }

// Hist returns a snapshot copy of the latency histogram, for callers
// that merge distributions across clients. Take it after in-flight
// requests have settled (e.g. once RunOpenLoop returns).
func (c *Client) Hist() *stats.Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := stats.NewHistogram()
	h.Merge(c.hist)
	return h
}

// Redundant returns the count of duplicate responses that reached this
// client (0 when switch filtering is on and effective).
func (c *Client) Redundant() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redundant
}

// Close releases the socket and stops the receiver. It is idempotent.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.conn.Close()
	})
	c.wg.Wait()
	return err
}

func maxIntU(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package simcluster

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"netclone/internal/congestion"
	"netclone/internal/simnet"
	"netclone/internal/stats"
	"netclone/internal/trace"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// rxModel is the event-driven client receiver that client.receive
// replaced, transcribed as it ran: a response's arrival event joins the
// receiver's FIFO, the receiver claims the pending entry when it starts
// serving the response, and an end-of-RX event fires ClientPktCostNS
// later (plus DedupMissCostNS on a miss) to record the completion or
// the redundant response and serve the next one. It runs on its own
// engine until the deadline, so nothing after it counts.
type rxModel struct {
	eng              *simnet.Engine
	hid              int32
	pkt, miss        int64
	winStart, winEnd int64
	clients          []rxModelClient

	completed int64
	marks     int64
	hist      *stats.Histogram
	events    []trace.Event
}

type rxModelClient struct {
	pending   map[uint32]int64 // seq -> send time
	queue     []*rxModelResp
	busy      bool
	redundant int64
}

// rxModelResp is a response in the model; sentAt is filled when the
// receiver claims its request.
type rxModelResp struct {
	hdr    wire.Header
	sentAt int64
}

const (
	rxArrive uint8 = iota // response arrives at the client NIC
	rxHit                 // RX finished a response with a pending match
	rxMiss                // RX finished a response whose request already completed
)

func (m *rxModel) OnEvent(kind uint8, arg any, x int64) {
	r, c := arg.(*rxModelResp), &m.clients[x]
	switch kind {
	case rxArrive:
		if r.hdr.ECN != 0 {
			m.marks++
		}
		if c.busy {
			c.queue = append(c.queue, r)
			return
		}
		c.busy = true
		m.serve(r, x)
	case rxHit:
		now := m.eng.Now()
		lat := now - r.sentAt
		m.completed++
		if now >= m.winStart && now < m.winEnd {
			m.hist.Record(lat)
		}
		m.record(trace.KindComplete, r, int32(min(lat, math.MaxInt32)))
		m.serveNext(x)
	case rxMiss:
		c.redundant++
		m.record(trace.KindRedundant, r, int32(r.hdr.SID))
		m.serveNext(x)
	}
}

// serve starts the receiver of client x on r: it claims (or misses) the
// pending entry at once, so a twin queued behind r takes the miss path.
func (m *rxModel) serve(r *rxModelResp, x int64) {
	c := &m.clients[x]
	if sentAt, ok := c.pending[r.hdr.ClientSeq]; ok {
		delete(c.pending, r.hdr.ClientSeq)
		r.sentAt = sentAt
		m.eng.ScheduleAfter(m.pkt, m.hid, rxHit, r, x)
	} else {
		m.eng.ScheduleAfter(m.pkt+m.miss, m.hid, rxMiss, r, x)
	}
}

func (m *rxModel) serveNext(x int64) {
	c := &m.clients[x]
	if len(c.queue) == 0 {
		c.busy = false
		return
	}
	r := c.queue[0]
	c.queue = c.queue[1:]
	m.serve(r, x)
}

func (m *rxModel) record(k trace.Kind, r *rxModelResp, value int32) {
	m.events = append(m.events, trace.Event{
		At: m.eng.Now(), Seq: r.hdr.ClientSeq, Value: value, Port: -1,
		Client: r.hdr.ClientID, Kind: k, Flags: pktFlags(&packet{hdr: r.hdr}),
	})
}

// rxArrival is one response reaching a client in a receiver test.
type rxArrival struct {
	at     int64
	client int
	seq    uint32
	sid    uint16
	ecn    bool
}

// Receiver test shape: every client has requests 0..rxIssued-1
// outstanding, sent at rxSentAt(seq); arrivals name seqs below
// rxSeqSpan, so some never had a request and a repeated seq is a twin.
const (
	rxIssued  = 6
	rxSeqSpan = 8
	rxStart   = 1000 // the first arrival time
)

func rxSentAt(seq uint32) int64 { return rxStart - 100 + 7*int64(seq) }

// decodeRx turns fuzz bytes into a receiver test: the client count, the
// receiver's costs, the deadline and the arrivals in nondecreasing
// time, equal times included.
func decodeRx(data []byte) (clients int, pkt, miss, deadline int64, arr []rxArrival) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	clients = 1 + int(at(0))%3
	pkt = 10 + 5*int64(at(1)%64)
	miss = 5 * int64(at(2)%64)
	t := int64(rxStart)
	for i := 4; i+2 < len(data) && len(arr) < 64; i += 3 {
		b := data[i]
		arr = append(arr, rxArrival{
			at:     t,
			client: int(b&0x7f) % clients,
			seq:    uint32(data[i+1]) % rxSeqSpan,
			sid:    uint16(data[i+1] >> 4),
			ecn:    b&0x80 != 0,
		})
		t += 7 * int64(data[i+2]%32)
	}
	// The deadline falls anywhere from the first arrival to well past
	// the last one's end of RX.
	span := t - rxStart + int64(len(arr))*(pkt+miss)
	deadline = rxStart + span*int64(at(3))/200
	return clients, pkt, miss, deadline, arr
}

// checkReceiver drives client.receive and the event-driven model with
// the same arrivals and requires the same completions, latencies,
// redundant responses, ECN marks and trace records.
func checkReceiver(t *testing.T, clients int, pkt, miss, deadline int64, arr []rxArrival) {
	t.Helper()
	cfg, err := Config{
		Scheme:     NetClone,
		NumClients: clients,
		Workers:    []int{2, 2},
		Service:    workload.Exp(25),
		OfferedRPS: 1e5,
		DurationNS: 1e6,
		Seed:       1,
		TraceRate:  1,
		TraceCap:   1024,
		Congestion: congestion.New(),
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	c.dCliPkt, c.dDedupMiss, c.deadline = pkt, miss, deadline
	c.winStart, c.winEnd = rxStart+50, deadline-20

	m := &rxModel{
		eng: simnet.NewEngine(), pkt: pkt, miss: miss,
		winStart: c.winStart, winEnd: c.winEnd,
		clients: make([]rxModelClient, clients), hist: stats.NewHistogram(),
	}
	m.hid = m.eng.Register(m)
	for i := range m.clients {
		m.clients[i].pending = map[uint32]int64{}
		for seq := uint32(0); seq < rxIssued; seq++ {
			m.clients[i].pending[seq] = rxSentAt(seq)
			c.clients[i].putPending(seq, pendingReq{sentAt: rxSentAt(seq)})
		}
	}
	for _, a := range arr {
		hdr := wire.Header{Type: wire.TypeResp, ClientID: uint16(a.client), ClientSeq: a.seq, SID: a.sid}
		if a.sid%2 == 1 {
			hdr.Clo = wire.CloClone
		}
		if a.ecn {
			hdr.ECN = 1
		}
		m.eng.Schedule(a.at, m.hid, rxArrive, &rxModelResp{hdr: hdr}, int64(a.client))
		p := c.newPacket()
		p.hdr, p.traced = hdr, true
		c.clients[a.client].receive(p, a.at)
	}
	m.eng.RunUntil(deadline)

	if c.completed != m.completed {
		t.Errorf("completed %d, the event-driven receiver %d", c.completed, m.completed)
	}
	if got, want := c.hist.Summarize(), m.hist.Summarize(); got != want {
		t.Errorf("latencies %+v, the event-driven receiver %+v", got, want)
	}
	for i := range m.clients {
		if got, want := c.clients[i].redundant, m.clients[i].redundant; got != want {
			t.Errorf("client %d: %d redundant responses, the event-driven receiver %d", i, got, want)
		}
	}
	if c.cong.markedAtClients != m.marks {
		t.Errorf("%d ECN marks at clients, the event-driven receiver %d", c.cong.markedAtClients, m.marks)
	}
	got := c.rec.Snapshot().Events
	if !slices.IsSortedFunc(got, func(a, b trace.Event) int { return cmp.Compare(a.At, b.At) }) {
		t.Errorf("trace records out of time order: %+v", got)
	}
	// Records with equal At may come in another client order: compare
	// them as sets.
	byKey := func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Value, b.Value))
	}
	slices.SortFunc(got, byKey)
	want := slices.SortedFunc(slices.Values(m.events), byKey)
	if !slices.Equal(got, want) {
		t.Errorf("trace records\n%+v\nthe event-driven receiver's\n%+v", got, want)
	}
}

// FuzzClientReceiver holds the busy-until receiver to the event-driven
// one it replaced, over per-client arrival sequences with twins, seqs
// that were never issued, equal arrival times and a deadline anywhere
// from the first arrival to past the last end of RX.
func FuzzClientReceiver(f *testing.F) {
	// One client, back-to-back arrivals (a queue), a twin (seq 2 twice)
	// and a never-issued seq (7), deadline past everything.
	f.Add([]byte{0, 20, 10, 255, 0, 2, 0, 0, 2, 1, 0, 3, 0, 0, 7, 4, 0, 1, 0})
	// Three clients at equal times, ECN-marked, twins across and within
	// clients, the deadline halfway through.
	f.Add([]byte{2, 9, 40, 100, 0x80, 1, 0, 1, 1, 0, 2, 1, 2, 0x81, 1, 0, 0, 1, 3, 1, 5, 1, 2, 1, 0})
	// Arrivals straddling an early deadline, a miss finishing past it
	// while a hit before it still counts.
	f.Add([]byte{1, 63, 63, 30, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 4, 2, 0x80, 4, 9, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		clients, pkt, miss, deadline, arr := decodeRx(data)
		checkReceiver(t, clients, pkt, miss, deadline, arr)
	})
}

// TestTracedSnapshotInTimeOrder runs traced schemes with a ring that
// overwrites nothing: the snapshot is in nondecreasing At although the
// receiver records each end of RX ahead of the clock, and every
// completed request has exactly one KindComplete, every redundant
// response one KindRedundant.
func TestTracedSnapshotInTimeOrder(t *testing.T) {
	for _, name := range []string{"netclone", "nofilter", "cclone", "congested"} {
		cfg := perfTestConfigs()[name]
		cfg.TraceRate = 1
		res := mustRun(t, cfg)
		d := res.Trace
		if d.Dropped != 0 {
			t.Fatalf("%s: the ring overwrote %d records", name, d.Dropped)
		}
		complete := map[uint64]int{}
		var redundant int64
		for i, e := range d.Events {
			if i > 0 && e.At < d.Events[i-1].At {
				t.Fatalf("%s: record %d at %d ns follows one at %d ns", name, i, e.At, d.Events[i-1].At)
			}
			switch e.Kind {
			case trace.KindComplete:
				complete[uint64(e.Client)<<32|uint64(e.Seq)]++
			case trace.KindRedundant:
				redundant++
			}
		}
		for k, n := range complete {
			if n != 1 {
				t.Errorf("%s: client %d seq %d has %d complete records, want 1", name, k>>32, uint32(k), n)
			}
		}
		if int64(len(complete)) != res.Completed || redundant != res.RedundantAtClient {
			t.Errorf("%s: %d requests with a complete record and %d redundant records; the run completed %d and counted %d redundant",
				name, len(complete), redundant, res.Completed, res.RedundantAtClient)
		}
	}
}

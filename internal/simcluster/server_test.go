package simcluster

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"netclone/internal/dataplane"
	"netclone/internal/faults"
	"netclone/internal/simnet"
	"netclone/internal/trace"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// srvModel is the event-driven server that the arithmetic one replaced,
// transcribed as it ran, each stage an event of its own: an arrival,
// filed dSwLink ahead as a switch filed it, reads the crash state, runs
// the stale-clone guard on the queue and files its dispatch dDispatch
// later; the dispatch starts service on a free worker or joins the FCFS
// queue; a start draws the service time, slowed by the window active
// then, and files the finish; a finish reads the queue for the load
// report, then pulls the next request. A crash frees the queue and
// orphans the work in service by its epoch. It runs on its own engine
// until the deadline, its fault transitions filed before anything else,
// as the fault controller files them. The arithmetic server has none of
// these events but the finish: the hop admits the request.
type srvModel struct {
	eng       *simnet.Engine
	hid       int32
	dDispatch int64
	guard     bool
	service   workload.Dist
	plan      []faults.Injection
	trans     []faultTrans
	servers   []srvModelServer

	faultDrops int64
	events     []trace.Event
	resps      []srvResp
}

type srvModelServer struct {
	sid     int
	rng     simnet.RNG
	workers int
	queue   []*srvModelReq
	busy    int
	down    bool
	epoch   uint32

	slowActive                bool
	slowFactor                float64
	slowFromNS, slowRampEndNS int64

	cloneDrops, respEmptyQ, respTotal int64
}

type srvModelReq struct {
	hdr   wire.Header
	srv   int
	epoch uint32
}

// srvResp is a response as it leaves a server.
type srvResp struct {
	at    int64
	sid   uint16
	seq   uint32
	state uint16
}

const (
	mArrive   uint8 = iota // request reaches the server NIC
	mDispatch              // dispatcher cost paid
	mFinish                // service done
	mFault                 // fault transition x
)

func (m *srvModel) OnEvent(kind uint8, arg any, x int64) {
	if kind == mFault {
		m.apply(m.trans[x])
		return
	}
	r := arg.(*srvModelReq)
	s := &m.servers[r.srv]
	switch kind {
	case mArrive:
		if s.down {
			m.faultDrops++
			return
		}
		if !dataplane.AdmitRequest(r.hdr.Clo, len(s.queue), m.guard) {
			s.cloneDrops++
			m.record(trace.KindCloneDrop, r)
			return
		}
		m.record(trace.KindServerArrive, r)
		r.epoch = s.epoch
		m.eng.ScheduleAfter(m.dDispatch, m.hid, mDispatch, r, 0)
	case mDispatch:
		if s.down || r.epoch != s.epoch {
			m.faultDrops++
			return
		}
		if s.busy < s.workers {
			s.busy++
			m.start(s, r)
		} else {
			s.queue = append(s.queue, r)
		}
	case mFinish:
		if r.epoch != s.epoch {
			m.faultDrops++
			return
		}
		qlen := len(s.queue)
		s.respTotal++
		if qlen == 0 {
			s.respEmptyQ++
		}
		m.record(trace.KindServerFinish, r)
		m.resps = append(m.resps, srvResp{m.eng.Now(), uint16(s.sid), r.hdr.ClientSeq, dataplane.ServerState(qlen, 0)})
		if len(s.queue) > 0 {
			next := s.queue[0]
			s.queue = s.queue[1:]
			m.start(s, next)
		} else {
			s.busy--
		}
	}
}

func (m *srvModel) start(s *srvModelServer, r *srvModelReq) {
	svc := m.service.Sample(&s.rng.Rand)
	if s.slowActive {
		f := s.slowFactor
		if now := m.eng.Now(); now < s.slowRampEndNS {
			frac := float64(now-s.slowFromNS) / float64(s.slowRampEndNS-s.slowFromNS)
			f = 1 + (s.slowFactor-1)*frac
		}
		svc = int64(float64(svc) * f)
	}
	m.record(trace.KindServerStart, r)
	m.eng.ScheduleAfter(svc, m.hid, mFinish, r, 0)
}

func (m *srvModel) apply(tr faultTrans) {
	in := m.plan[tr.inj]
	s := &m.servers[in.Target]
	switch {
	case in.Kind == faults.KindServerCrash && tr.begin:
		s.down = true
		s.epoch++
		s.queue = nil
		s.busy = 0
	case in.Kind == faults.KindServerCrash:
		s.down = false
	case tr.begin:
		s.slowActive, s.slowFactor = true, in.Factor
		s.slowFromNS, s.slowRampEndNS = in.FromNS, in.FromNS+in.RampNS
	default:
		s.slowActive = false
	}
}

func (m *srvModel) record(k trace.Kind, r *srvModelReq) {
	m.events = append(m.events, trace.Event{
		At: m.eng.Now(), Seq: r.hdr.ClientSeq, Value: int32(r.srv), Port: -1,
		Client: r.hdr.ClientID, Kind: k, Flags: pktFlags(&packet{hdr: r.hdr}),
	})
}

// handlerFunc registers a function as an engine handler.
type handlerFunc func(kind uint8, arg any, x int64)

func (f handlerFunc) OnEvent(kind uint8, arg any, x int64) { f(kind, arg, x) }

// srvArrival is one request reaching a server in a server test.
type srvArrival struct {
	at    int64
	srv   int
	clone bool
}

// srvCase is one server test: the servers' worker counts, the service
// times, the guard, the fault plan, the arrivals in nondecreasing time
// and the deadline.
type srvCase struct {
	workers  []int
	service  workload.Dist
	guard    bool
	plan     []faults.Injection
	arrivals []srvArrival
	deadline int64
}

// pickDist draws each service time from a few fixed values.
type pickDist []int64

func (d pickDist) Sample(r *rand.Rand) int64 { return d[r.IntN(len(d))] }
func (d pickDist) Mean() float64             { return 1 }
func (d pickDist) Name() string              { return "pick" }

// srvStart is the first arrival time of a server test: later than the
// lead a switch files an arrival with.
const srvStart = 10_000

// srvTimes are the service times a test draws from: around the
// dispatcher cost (150 ns) and the arrival lead (1,400 ns), where ties
// decide the event order, zero, and long ones that build queues.
var srvTimes = []int64{0, 1, 50, 100, 149, 150, 151, 200, 1350, 1399, 1400, 1401, 1450, 3000, 5000, 9000}

// decodeSrv turns fuzz bytes into a server test. Times fall on a grid
// of 1 ns or 50 ns, the latter making ties with the dispatcher cost and
// the arrival lead common.
func decodeSrv(data []byte) srvCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	var tc srvCase
	n := 2 + int(at(0))%2
	for i := range n {
		tc.workers = append(tc.workers, []int{1, 2, 16}[int(at(1)>>(2*i))%3])
	}
	unit := int64(1)
	if at(2)&1 != 0 {
		unit = 50
	}
	tc.guard = at(2)&2 == 0
	if at(2)&4 != 0 {
		tc.service = workload.Exp(0.4)
	} else {
		tc.service = pickDist{srvTimes[at(3)%16], srvTimes[at(3)>>4], srvTimes[at(4)%16], srvTimes[at(4)>>4]}
	}
	// Up to three windows on the servers: a crash or a slowdown, each
	// on its own target and kind, or back to back with the previous
	// window of its kind and target, and declared first.
	end := map[[2]int]int64{}
	for w := 0; w < 3 && at(5+3*w) != 0; w++ {
		b, from, span := at(5+3*w), int64(at(6+3*w)), int64(at(7+3*w)%64+1)*unit
		kind, target := faults.KindServerCrash, int(b>>2)%n
		if b&1 != 0 {
			kind = faults.KindServerSlowdown
		}
		start := srvStart + from*unit
		if last, ok := end[[2]int{int(kind), target}]; ok {
			start = last + int64(b>>5)*unit
		}
		end[[2]int{int(kind), target}] = start + span
		in := faults.Injection{Kind: kind, Target: target, FromNS: start, UntilNS: start + span}
		if kind == faults.KindServerSlowdown {
			in.Factor = []float64{0.5, 2, 3.5}[int(b>>3)%3]
			in.RampNS = []int64{0, span / 2, span}[int(b>>1)%3]
		}
		tc.plan = append([]faults.Injection{in}, tc.plan...)
	}
	t := int64(srvStart)
	for i := 15; i+1 < len(data) && len(tc.arrivals) < 64; i += 2 {
		b := data[i]
		tc.arrivals = append(tc.arrivals, srvArrival{at: t, srv: int(b&0x7f) % n, clone: b&0x80 != 0})
		t += unit * int64(data[i+1]%48)
	}
	tc.deadline = srvStart + (t-srvStart+20_000)*int64(at(14))/200
	return tc
}

// checkServer drives the arithmetic servers, each request handed over
// at its hop dSwLink before its arrival, and the event-driven model
// with the same arrivals and fault plan and requires the same
// admissions, guard drops, trace records (arrival, start, finish),
// responses and their load reports, empty-queue counts, fault drops and
// service-time draws.
func checkServer(t *testing.T, tc srvCase) {
	t.Helper()
	cfg, err := Config{
		Scheme:                 NetClone,
		NumClients:             1,
		Workers:                tc.workers,
		Service:                tc.service,
		OfferedRPS:             1e5,
		DurationNS:             1e6,
		Seed:                   7,
		TraceRate:              1,
		TraceCap:               1 << 12,
		DisableServerCloneDrop: !tc.guard,
		Faults:                 faults.New(tc.plan...),
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	c.deadline, c.dLink = tc.deadline, 0

	m := &srvModel{eng: simnet.NewEngine(), dDispatch: c.dDispatch, guard: tc.guard, service: tc.service}
	m.hid = m.eng.Register(m)
	m.servers = make([]srvModelServer, len(tc.workers))
	for sid, w := range tc.workers {
		s := &m.servers[sid]
		s.sid, s.workers = sid, w
		s.rng.Seed(cfg.Seed, 200+uint64(sid))
	}
	if c.faults != nil {
		m.plan, m.trans = c.faults.plan, c.faults.trans
		for i, tr := range m.trans {
			m.eng.Schedule(tr.at, m.hid, mFault, nil, int64(i))
		}
		c.faults.schedule()
	}

	// Responses leave the servers for a stand-in switch.
	var got []srvResp
	c.sw.hid = c.eng.Register(handlerFunc(func(_ uint8, arg any, _ int64) {
		p := arg.(*packet)
		got = append(got, srvResp{c.eng.Now(), p.hdr.SID, p.hdr.ClientSeq, p.hdr.State})
		c.freePacket(p)
	}))
	feed := c.eng.Register(handlerFunc(func(_ uint8, arg any, x int64) {
		c.servers[x].arrive(arg.(*packet), c.eng.Now()+c.dSwLink)
	}))
	mfeed := m.eng.Register(handlerFunc(func(_ uint8, arg any, _ int64) {
		m.eng.ScheduleAfter(c.dSwLink, m.hid, mArrive, arg, 0)
	}))
	for i, a := range tc.arrivals {
		hdr := wire.Header{Type: wire.TypeReq, ClientSeq: uint32(i), PktTotal: 1}
		if a.clone {
			hdr.Clo = wire.CloClone
		}
		p := c.newPacket()
		p.hdr, p.traced = hdr, true
		c.eng.Schedule(a.at-c.dSwLink, feed, 0, p, int64(a.srv))
		m.eng.Schedule(a.at-c.dSwLink, mfeed, 0, &srvModelReq{hdr: hdr, srv: a.srv}, 0)
	}
	c.eng.RunUntil(tc.deadline)
	m.eng.RunUntil(tc.deadline)

	for sid, ms := range m.servers {
		s := c.servers[sid]
		if s.cloneDrops != ms.cloneDrops || s.respEmptyQ != ms.respEmptyQ || s.respTotal != ms.respTotal {
			t.Errorf("server %d: %d clone drops, %d of %d responses on an empty queue; the event-driven server %d, %d of %d",
				sid, s.cloneDrops, s.respEmptyQ, s.respTotal, ms.cloneDrops, ms.respEmptyQ, ms.respTotal)
		}
		// The draws of the requests not started by the deadline are the
		// event-driven server's draws to come.
		first := true
		s.pool.Reset((tc.deadline+1)*vtRanks, func(e *dataplane.Pending[admitted]) {
			if first {
				s.rng.Rewind(e.Token.mark)
				first = false
			}
		})
		if s.rng.Mark() != ms.rng.Mark() {
			t.Errorf("server %d: the service-time generator stands elsewhere than the event-driven server's", sid)
		}
	}
	if c.faultDrops != m.faultDrops {
		t.Errorf("%d fault drops, the event-driven server %d", c.faultDrops, m.faultDrops)
	}
	byResp := func(a, b srvResp) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.sid, b.sid), cmp.Compare(a.seq, b.seq))
	}
	slices.SortFunc(got, byResp)
	slices.SortFunc(m.resps, byResp)
	if !slices.Equal(got, m.resps) {
		t.Errorf("responses (at, server, seq, load)\n%v\nthe event-driven server's\n%v", got, m.resps)
	}
	events := c.rec.Snapshot().Events
	if !slices.IsSortedFunc(events, func(a, b trace.Event) int { return cmp.Compare(a.At, b.At) }) {
		t.Errorf("trace records out of time order: %+v", events)
	}
	byKey := func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Value, b.Value), cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Kind, b.Kind))
	}
	slices.SortFunc(events, byKey)
	slices.SortFunc(m.events, byKey)
	if !slices.Equal(events, m.events) {
		t.Errorf("trace records\n%+v\nthe event-driven server's\n%+v", events, m.events)
	}
}

// FuzzServerQueue holds the arithmetic server to the event-driven one
// it replaced, over arrivals with equal times, service times tied with
// the dispatcher cost and the arrival lead, clones under the guard or
// not, crash and slowdown windows (ramped, back to back and declared
// out of order) and a deadline anywhere.
func FuzzServerQueue(f *testing.F) {
	// Two single-worker servers, a 50 ns grid, service times at the
	// dispatcher cost and the arrival lead: queues, ties and clones.
	f.Add([]byte{0, 0, 1, 0x55, 0xAC, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0x80, 3, 0, 0, 0x80, 1, 0, 27, 0x80, 0, 0, 3, 0x80, 2})
	// Servers of 16, 2 and 1 workers, a crash on server 1 amid its
	// queue and a ramped slowdown on server 0, deadline past everything.
	f.Add([]byte{1, 5, 1, 0xE0, 0x7D, 4, 20, 40, 3, 2, 60, 0, 0, 0, 255, 1, 0, 0, 1, 1, 2, 0x81, 0, 0, 3, 1, 1, 0x80, 0, 1, 0, 0, 2, 0x81, 5, 1, 0})
	// Back-to-back slowdowns on server 2 declared out of order, and a
	// crash on server 1, on a 1 ns grid with exponential service.
	f.Add([]byte{1, 4, 4, 0, 0, 11, 10, 30, 11, 0, 20, 4, 5, 9, 150, 0, 1, 1, 2, 0x80, 3, 1, 0, 0, 0, 0x81, 7, 0, 9, 1, 0})
	// Servers of 16 and 1 workers, zero and one-nanosecond service,
	// equal times, an early deadline.
	f.Add([]byte{0, 2, 1, 0x10, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0x80, 0, 0, 1, 0x80, 0, 0, 0, 0x80, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkServer(t, decodeSrv(data))
	})
}

// TestServerCrashDropsStartRecords: a crash takes back the start
// records of the requests it kills before they start, and counts a
// request still in the dispatcher, not a queued one.
func TestServerCrashDropsStartRecords(t *testing.T) {
	checkServer(t, srvCase{
		workers: []int{1, 1},
		service: workload.Fixed{NS: 1000},
		guard:   true,
		plan:    []faults.Injection{faults.ServerCrash(0, srvStart+1100, srvStart+5000)},
		arrivals: []srvArrival{
			{at: srvStart, srv: 0}, {at: srvStart, srv: 0}, {at: srvStart + 1000, srv: 0},
			{at: srvStart + 1000, srv: 1}, {at: srvStart + 6000, srv: 0},
		},
		deadline: math.MaxInt64 / vtRanks / 2,
	})
}

// srvLead is the lead a switch files an arrival with (dSwLink at the
// default calibration): a hop at t delivers at t + srvLead.
const srvLead = 1400

// TestServerCrashBetweenHopAndArrival: requests whose hops come before a
// crash and whose arrivals come after its window reach the pool the
// crash emptied, in order, ahead of a later hop's; one that waits
// through two crashes arrives after the second. The crash cancels what
// was admitted before it as ever.
func TestServerCrashBetweenHopAndArrival(t *testing.T) {
	const a = srvStart + 5000
	checkServer(t, srvCase{
		workers: []int{1, 1},
		service: pickDist{700, 2000},
		guard:   true,
		plan: []faults.Injection{
			faults.ServerCrash(0, a-1000, a-500),
			faults.ServerCrash(1, a-1000, a-800),
			faults.ServerCrash(1, a-600, a-400),
		},
		arrivals: []srvArrival{
			{at: srvStart, srv: 0}, {at: a - 1500, srv: 0}, {at: a - 1500, srv: 1},
			{at: a - 1200, srv: 0, clone: true}, {at: a - 1200, srv: 1},
			{at: a, srv: 0}, {at: a, srv: 1}, {at: a, srv: 0, clone: true},
			{at: a + 100, srv: 0}, {at: a + 100, srv: 1, clone: true},
			{at: a + 1000, srv: 0, clone: true}, {at: a + 1000, srv: 1},
		},
		deadline: math.MaxInt64 / vtRanks / 2,
	})
}

// TestServerArrivalAtCrashEdges: an arrival at a crash's start is
// dropped, one at its end admitted, whatever the hop saw.
func TestServerArrivalAtCrashEdges(t *testing.T) {
	const from, until = srvStart + 3000, srvStart + 4000
	checkServer(t, srvCase{
		workers: []int{2, 1},
		service: workload.Fixed{NS: 500},
		guard:   true,
		plan: []faults.Injection{
			faults.ServerCrash(0, from, until),
			faults.ServerCrash(1, from, from+srvLead/2),
		},
		arrivals: []srvArrival{
			{at: from - 1, srv: 0}, {at: from - 1, srv: 1},
			{at: from, srv: 0}, {at: from, srv: 1},
			{at: from + srvLead/2 - 1, srv: 1}, {at: from + srvLead/2, srv: 1},
			{at: until - 1, srv: 0}, {at: until, srv: 0}, {at: until, srv: 0, clone: true},
			{at: until + 1, srv: 1},
		},
		deadline: math.MaxInt64 / vtRanks / 2,
	})
}

// TestServerArrivalPastDeadline: a request whose hop runs by the
// deadline and whose arrival falls after it is never admitted, drawn,
// guarded or counted; one arriving at the deadline is.
func TestServerArrivalPastDeadline(t *testing.T) {
	const deadline = srvStart + 2000
	checkServer(t, srvCase{
		workers: []int{1, 1},
		service: workload.Fixed{NS: 1500},
		guard:   true,
		plan:    []faults.Injection{faults.ServerCrash(1, deadline+100, deadline+200)},
		arrivals: []srvArrival{
			{at: srvStart, srv: 0}, {at: srvStart, srv: 1}, {at: deadline - 1, srv: 0},
			{at: deadline, srv: 0}, {at: deadline, srv: 0, clone: true},
			{at: deadline + 1, srv: 0}, {at: deadline + 1, srv: 0, clone: true},
			{at: deadline + 300, srv: 1}, {at: deadline + srvLead, srv: 1},
		},
		deadline: deadline,
	})
}

package simcluster

import (
	"math"
	"sort"

	"netclone/internal/faults"
	"netclone/internal/stats"
)

// Fault-plan execution (DESIGN.md §7). A validated faults.Plan is
// compiled at build time into a faultCtl: a flat list of begin/end
// transitions sorted by time, each applied by one typed engine event
// (evFaultTrans, arg nil, x = transition index — no allocation).
// Transitions flip scalar state on the cluster's nodes (switch.down,
// server.epoch and its pool, the loss-window parameters); the
// per-packet steady path only reads those scalars and, at a faulted
// server, its windows (server.plan: whether a crash holds a request's
// arrival, the slowdown at its start; a slowdown's transitions change
// nothing, a crash's end neither), so fault scheduling adds zero
// allocations and — with no plan — zero behavioral difference to a
// fault-free run.

// faultTrans is one compiled transition: injection inj begins (or
// ends) at time at.
type faultTrans struct {
	at    int64
	inj   int
	begin bool
}

// faultCtl owns a run's compiled fault plan and its execution state.
type faultCtl struct {
	cl    *cluster
	h     node  // the registered handler (events.go)
	hid   int32 // its engine handler ID
	plan  []faults.Injection
	trans []faultTrans

	// degraded is the merged union of all fault windows.
	degraded [][2]int64

	transitions    int
	serversDown    int
	serversDownMax int
}

// newFaultCtl compiles the plan's injections for cluster c.
func newFaultCtl(c *cluster, inj []faults.Injection) *faultCtl {
	f := &faultCtl{cl: c, plan: inj}
	f.hid = f.h.register(c.eng, f)
	for i, in := range inj {
		if in.Kind == faults.KindServerCrash || in.Kind == faults.KindServerSlowdown {
			s := c.servers[in.Target]
			s.plan = append(s.plan, in)
		}
		f.trans = append(f.trans, faultTrans{at: in.FromNS, inj: i, begin: true})
		if in.UntilNS != math.MaxInt64 {
			f.trans = append(f.trans, faultTrans{at: in.UntilNS, inj: i, begin: false})
		}
	}
	// Stable by (time, ends-before-begins): when one window ends
	// exactly where an adjacent same-kind window begins — a valid,
	// non-overlapping plan — the end must apply first or it would
	// cancel the window that just began. Ties beyond that keep plan
	// order, so execution order is a pure function of the plan.
	sort.SliceStable(f.trans, func(i, j int) bool {
		if f.trans[i].at != f.trans[j].at {
			return f.trans[i].at < f.trans[j].at
		}
		return !f.trans[i].begin && f.trans[j].begin
	})
	f.degraded = faults.New(inj...).Windows()
	return f
}

// activateImmediate applies every transition at t <= 0 directly —
// faults active from the start of the run flip their state at build
// time instead of spending an engine event at t = 0.
func (f *faultCtl) activateImmediate() {
	for _, tr := range f.trans {
		if tr.at <= 0 {
			f.apply(tr)
		}
	}
}

// schedule enqueues the timed transitions as typed engine events.
// Called once per run, after build and before the clients start, so
// transition sequence numbers — and therefore FIFO ties — land exactly
// where the legacy switch-failure closures did.
func (f *faultCtl) schedule() {
	for i, tr := range f.trans {
		if tr.at <= 0 {
			continue
		}
		f.cl.eng.Schedule(tr.at, f.hid, evFaultTrans, nil, int64(i))
	}
}

// fire applies timed transition x (an evFaultTrans event).
func (f *faultCtl) fire(x int64) {
	f.transitions++
	f.apply(f.trans[x])
}

// apply flips the state of one transition's target.
func (f *faultCtl) apply(tr faultTrans) {
	in := f.plan[tr.inj]
	switch in.Kind {
	case faults.KindSwitchOutage:
		if tr.begin {
			f.cl.sw.fail()
		} else {
			f.cl.sw.recover()
		}
	case faults.KindServerCrash:
		s := f.cl.servers[in.Target]
		if tr.begin {
			s.crash()
			f.serversDown++
			if f.serversDown > f.serversDownMax {
				f.serversDownMax = f.serversDown
			}
		} else {
			f.serversDown--
		}
	case faults.KindLoss:
		c := f.cl
		if tr.begin {
			c.lossActive = true
			c.lossBase = in.StartProb
			c.lossFromNS = in.FromNS
			c.lossSlope = 0
			if in.EndProb != in.StartProb && in.UntilNS != math.MaxInt64 {
				c.lossSlope = (in.EndProb - in.StartProb) / float64(in.UntilNS-in.FromNS)
			}
		} else {
			c.lossActive = false
		}
	}
}

// inDegraded reports whether completion time t falls inside any fault
// window. Completions are recorded when their response reaches the
// client, stamped with the end of RX (client.receive), so t is not
// monotone across clients and every call scans the plan's few windows.
func (f *faultCtl) inDegraded(t int64) bool {
	for _, w := range f.degraded {
		if t >= w[0] && t < w[1] {
			return true
		}
	}
	return false
}

// summary reduces the controller into the Result view.
func (f *faultCtl) summary(degHist *stats.Histogram, droppedPackets int64) *FaultSummary {
	s := &FaultSummary{
		Windows:        make([]FaultWindow, len(f.plan)),
		Transitions:    f.transitions,
		ServersDownMax: f.serversDownMax,
		DroppedPackets: droppedPackets,
	}
	for i, in := range f.plan {
		s.Windows[i] = FaultWindow{
			Kind:    in.Kind.String(),
			Target:  in.Target,
			FromNS:  in.FromNS,
			UntilNS: in.UntilNS,
		}
	}
	if degHist != nil {
		s.DegradedCompleted = degHist.Count()
		s.Degraded = degHist.Summarize()
	}
	return s
}

package udpemu

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// FaultSchedule is the socket-expressible subset of the declarative
// fault-plan layer (internal/faults), translated to wall-clock window
// offsets: loss windows applied at the switch, and server
// crash/recover windows applied in the server processes. Window
// offsets are relative to the open-loop start (Cluster.RunOpenLoop
// arms the clock), mapping 1:1 from the simulator's virtual-time
// offsets — the emu send window spans the scenario duration, since the
// open loop sends rate x duration requests at that rate.
//
// The remaining fault kinds (server slowdown, switch outage) need
// simulator machinery and stay sim-only; the scenario layer rejects
// them by name.
type FaultSchedule struct {
	Loss    []LossWindow
	Crashes []CrashWindow
}

// LossWindow drops each packet crossing the switch during [From,
// Until) with a probability interpolated linearly from StartProb to
// EndProb — the emu rendering of faults.Loss/LossRamp. Every emulated
// link traversal passes through the switch socket, so one ingress gate
// models fabric-wide loss.
type LossWindow struct {
	From, Until        time.Duration
	StartProb, EndProb float64
}

// CrashWindow takes server Target (-1 for every server) down during
// [From, Until): arriving packets are dropped and queued work is
// discarded, and the server comes back empty at Until —
// faults.ServerCrash in the emu server process.
type CrashWindow struct {
	Target      int
	From, Until time.Duration
}

// Empty reports whether the schedule does nothing; nil schedules are
// empty.
func (fs *FaultSchedule) Empty() bool {
	return fs == nil || (len(fs.Loss) == 0 && len(fs.Crashes) == 0)
}

// faultState is the armed runtime form: an immutable schedule plus the
// wall-clock zero set when the open loop starts. Loss is a pure
// function of elapsed time evaluated on the switch's serve
// goroutine (no locks, no allocation); crashes are executed by a
// cluster goroutine flipping server down-flags at the transitions.
type faultState struct {
	sched   FaultSchedule
	startNS atomic.Int64 // wall ns of the window zero; 0 = not armed
}

func newFaultState(fs FaultSchedule) *faultState { return &faultState{sched: fs} }

// arm pins the window zero. Re-arming (a second RunOpenLoop) restarts
// the schedule.
func (f *faultState) arm(t time.Time) { f.startNS.Store(t.UnixNano()) }

// elapsed returns nanoseconds since arm, or -1 before arming.
func (f *faultState) elapsed(now time.Time) int64 {
	s := f.startNS.Load()
	if s == 0 {
		return -1
	}
	return now.UnixNano() - s
}

// lossP returns the drop probability active at now (0 outside every
// window).
func (f *faultState) lossP(now time.Time) float64 {
	if f == nil || len(f.sched.Loss) == 0 {
		return 0
	}
	el := f.elapsed(now)
	if el < 0 {
		return 0
	}
	for _, w := range f.sched.Loss {
		from, until := int64(w.From), int64(w.Until)
		if el < from || el >= until {
			continue
		}
		if w.StartProb == w.EndProb || until == math.MaxInt64 {
			return w.StartProb
		}
		frac := float64(el-from) / float64(until-from)
		return w.StartProb + (w.EndProb-w.StartProb)*frac
	}
	return 0
}

// crashTransition is one down-flag flip in the crash executor's
// timeline.
type crashTransition struct {
	at     time.Duration
	target int
	down   bool
}

// crashTransitions flattens the crash windows into a sorted flip
// timeline. Until == faults.Forever windows simply never emit their
// recovery flip within any finite run.
func (fs FaultSchedule) crashTransitions() []crashTransition {
	var ts []crashTransition
	for _, w := range fs.Crashes {
		ts = append(ts, crashTransition{at: w.From, target: w.Target, down: true})
		if int64(w.Until) != math.MaxInt64 {
			ts = append(ts, crashTransition{at: w.Until, target: w.Target, down: false})
		}
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].at < ts[j].at })
	return ts
}

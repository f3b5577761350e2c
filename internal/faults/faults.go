// Package faults is the declarative fault-plan layer of the scenario
// API: a Plan is an ordered set of typed, time-scheduled injections —
// server crashes, service-time stragglers, time-varying loss windows
// and switch outages — that the simulator executes through its typed
// event engine (the §3.6 robustness story generalized from two
// hard-coded knobs to an open family of chaos experiments).
//
// The package is a pure description layer: it knows window arithmetic
// and contradiction rules, but nothing about the cluster that executes
// a plan. internal/simcluster compiles a validated Plan into fault
// transitions on its event engine; internal/scenario exposes it as
// scenario.WithFaults, with WithLoss as shorthand for a one-entry
// whole-run loss window.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Forever is the Until sentinel for injections that never end: the
// fault stays active from its start time to the end of the run.
const Forever time.Duration = math.MaxInt64

// foreverNS is Forever in the nanosecond fields of an Injection.
const foreverNS int64 = math.MaxInt64

// Kind enumerates the fault types a plan can schedule.
type Kind uint8

const (
	// KindServerCrash takes one worker server down during the window:
	// its queue and in-flight work are lost, arriving packets are
	// dropped, and it comes back empty at recovery.
	KindServerCrash Kind = iota
	// KindServerSlowdown multiplies one server's service times by
	// Factor during the window — the straggling-endpoint model — with
	// an optional linear ramp from 1x to Factor over RampNS.
	KindServerSlowdown
	// KindLoss drops each link traversal independently during the
	// window, with the probability interpolated linearly from StartProb
	// to EndProb across it (equal values give the §3.6 static model).
	KindLoss
	// KindSwitchOutage stops the client-side ToR during the window —
	// all packets are dropped and its soft state is lost, exactly the
	// Fig 16 stop/reactivate experiment.
	KindSwitchOutage

	kindCount
)

// String returns the kind label used in validation errors and the
// executed-window report.
func (k Kind) String() string {
	switch k {
	case KindServerCrash:
		return "server-crash"
	case KindServerSlowdown:
		return "server-slowdown"
	case KindLoss:
		return "loss"
	case KindSwitchOutage:
		return "switch-outage"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Injection is one typed, time-scheduled fault. Build injections with
// the constructors below; the fields are exported so executors and
// tests can inspect them, but constructors keep the per-kind field
// conventions straight.
type Injection struct {
	Kind Kind

	// Target is the server index for targeted kinds, and -1 for the
	// global kinds (loss, switch outage).
	Target int

	// FromNS and UntilNS bound the active window [FromNS, UntilNS) in
	// virtual nanoseconds. UntilNS == Forever never ends.
	FromNS  int64
	UntilNS int64

	// Factor is the service-time multiplier of a slowdown (> 0; values
	// below 1 model a speedup).
	Factor float64

	// RampNS is the slowdown's linear ramp length: the factor grows
	// from 1 at FromNS to Factor at FromNS+RampNS, then holds.
	RampNS int64

	// StartProb and EndProb bound a loss window's per-link drop
	// probability, interpolated linearly across the window.
	StartProb float64
	EndProb   float64
}

// ServerCrash takes server down during [at, recoverAt); use Forever to
// never recover.
func ServerCrash(server int, at, recoverAt time.Duration) Injection {
	return Injection{Kind: KindServerCrash, Target: server, FromNS: int64(at), UntilNS: int64(recoverAt)}
}

// ServerSlowdown multiplies server's service times by factor during
// [from, until), ramping linearly from 1x to factor over the first
// ramp; ramp 0 applies the full factor instantly.
func ServerSlowdown(server int, from, until time.Duration, factor float64, ramp time.Duration) Injection {
	return Injection{
		Kind: KindServerSlowdown, Target: server,
		FromNS: int64(from), UntilNS: int64(until),
		Factor: factor, RampNS: int64(ramp),
	}
}

// Loss drops each link traversal with constant probability p during
// [from, until) — WithLoss(p) is Loss(0, Forever, p).
func Loss(from, until time.Duration, p float64) Injection {
	return LossRamp(from, until, p, p)
}

// LossRamp drops each link traversal during [from, until) with a
// probability interpolated linearly from startP at the window start to
// endP at its end — a decaying burst is LossRamp(t0, t1, high, low).
func LossRamp(from, until time.Duration, startP, endP float64) Injection {
	return Injection{
		Kind: KindLoss, Target: -1,
		FromNS: int64(from), UntilNS: int64(until),
		StartProb: startP, EndProb: endP,
	}
}

// SwitchOutage stops the client-side ToR during [at, recoverAt) — the
// Fig 16 stop/reactivate experiment.
func SwitchOutage(at, recoverAt time.Duration) Injection {
	return Injection{Kind: KindSwitchOutage, Target: -1, FromNS: int64(at), UntilNS: int64(recoverAt)}
}

// SlowdownAt returns the factor the slowdowns among inj put on server's
// service times at t: the Factor of the window that holds t (FromNS <=
// t < UntilNS), ramped from 1 over its first RampNS. ok is false when no
// window holds t. A valid plan's windows on one server do not overlap,
// so at most one does.
func SlowdownAt(inj []Injection, server int, t int64) (factor float64, ok bool) {
	for _, in := range inj {
		if in.Kind != KindServerSlowdown || in.Target != server || t < in.FromNS || t >= in.UntilNS {
			continue
		}
		if end := in.FromNS + in.RampNS; t < end {
			return 1 + (in.Factor-1)*(float64(t-in.FromNS)/float64(end-in.FromNS)), true
		}
		return in.Factor, true
	}
	return 1, false
}

// DownAt reports whether a crash among inj holds server down at t
// (FromNS <= t < UntilNS).
func DownAt(inj []Injection, server int, t int64) bool {
	for _, in := range inj {
		if in.Kind == KindServerCrash && in.Target == server && in.FromNS <= t && t < in.UntilNS {
			return true
		}
	}
	return false
}

// Plan is an ordered, immutable set of injections. The zero value and
// the nil plan are both the empty plan; With derives extended copies,
// so one plan can safely fan out across concurrently running scenario
// variants.
type Plan struct {
	inj []Injection
}

// New builds a plan from the given injections.
func New(inj ...Injection) *Plan {
	p := &Plan{inj: make([]Injection, len(inj))}
	copy(p.inj, inj)
	return p
}

// With returns a copy of the plan with the extra injections appended.
// The receiver (which may be nil) is not modified.
func (p *Plan) With(inj ...Injection) *Plan {
	var base []Injection
	if p != nil {
		base = p.inj
	}
	out := &Plan{inj: make([]Injection, 0, len(base)+len(inj))}
	out.inj = append(out.inj, base...)
	out.inj = append(out.inj, inj...)
	return out
}

// Injections returns a copy of the plan's injections in declaration
// order.
func (p *Plan) Injections() []Injection {
	if p == nil {
		return nil
	}
	return append([]Injection(nil), p.inj...)
}

// Len returns the number of injections.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.inj)
}

// Empty reports whether the plan schedules nothing. Empty plans are
// guaranteed byte-identical to no plan at all.
func (p *Plan) Empty() bool { return p.Len() == 0 }

// Cluster describes the topology a plan will run against, for target
// bounds checking.
type Cluster struct {
	Servers int
}

// Validate checks every injection's fields and window, and rejects
// contradictory plans: two injections of the same kind on the same
// target with overlapping windows have no defined meaning and are
// refused rather than silently last-writer-wins resolved. Errors are
// actionable and name the offending constructor.
func (p *Plan) Validate(c Cluster) error {
	if p.Empty() {
		return nil
	}
	for i, in := range p.inj {
		if err := in.validate(c); err != nil {
			return fmt.Errorf("faults: injection %d: %w", i, err)
		}
	}
	// Contradiction pass: sort a copy by (kind, target, from) so any
	// same-kind same-target overlap is adjacent.
	sorted := p.Injections()
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.FromNS < b.FromNS
	})
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if a.Kind == b.Kind && a.Target == b.Target && b.FromNS < a.UntilNS {
			return fmt.Errorf(
				"faults: two %s injections on target %d overlap ([%d, %d) and [%d, %d) ns); merge them into one window",
				a.Kind, a.Target, a.FromNS, a.UntilNS, b.FromNS, b.UntilNS)
		}
	}
	return nil
}

// validate checks one injection against the cluster shape.
func (in Injection) validate(c Cluster) error {
	if in.Kind >= kindCount {
		return fmt.Errorf("unknown fault kind %d", int(in.Kind))
	}
	if in.FromNS < 0 {
		return fmt.Errorf("%s window starts at %d ns, need >= 0", in.Kind, in.FromNS)
	}
	if in.UntilNS <= in.FromNS {
		switch in.Kind {
		case KindServerCrash, KindSwitchOutage:
			return fmt.Errorf("%s recovery at %d ns is not after failure at %d ns",
				in.Kind, in.UntilNS, in.FromNS)
		default:
			return fmt.Errorf("%s window ends at %d ns, not after its start at %d ns",
				in.Kind, in.UntilNS, in.FromNS)
		}
	}
	targeted := in.Kind == KindServerCrash || in.Kind == KindServerSlowdown
	if targeted && (in.Target < 0 || in.Target >= c.Servers) {
		return fmt.Errorf("%s targets server %d, cluster has servers 0..%d",
			in.Kind, in.Target, c.Servers-1)
	}
	switch in.Kind {
	case KindServerSlowdown:
		if in.Factor <= 0 {
			return fmt.Errorf("server-slowdown factor %g, need > 0 (ServerSlowdown)", in.Factor)
		}
		if in.RampNS < 0 {
			return fmt.Errorf("server-slowdown ramp %d ns, need >= 0 (ServerSlowdown)", in.RampNS)
		}
		if in.UntilNS != foreverNS && in.RampNS > in.UntilNS-in.FromNS {
			return fmt.Errorf("server-slowdown ramp %d ns exceeds its %d ns window (ServerSlowdown)",
				in.RampNS, in.UntilNS-in.FromNS)
		}
	case KindLoss:
		for _, prob := range [2]float64{in.StartProb, in.EndProb} {
			if prob < 0 || prob >= 1 {
				return fmt.Errorf("loss probability %g, need [0, 1) (Loss/LossRamp)", prob)
			}
		}
	}
	return nil
}

// Windows returns the plan's activity intervals merged into a sorted,
// disjoint union — the run's degraded-time intervals, used by the
// executor to attribute completions to degraded windows.
func (p *Plan) Windows() [][2]int64 {
	if p.Empty() {
		return nil
	}
	iv := make([][2]int64, 0, len(p.inj))
	for _, in := range p.inj {
		iv = append(iv, [2]int64{in.FromNS, in.UntilNS})
	}
	sort.Slice(iv, func(i, j int) bool {
		if iv[i][0] != iv[j][0] {
			return iv[i][0] < iv[j][0]
		}
		return iv[i][1] < iv[j][1]
	})
	merged := iv[:1]
	for _, w := range iv[1:] {
		last := &merged[len(merged)-1]
		if w[0] <= last[1] {
			if w[1] > last[1] {
				last[1] = w[1]
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

package trace

import (
	"fmt"

	"netclone/internal/stats"
)

// Breakdown decomposes the latency of a run's traced, completed
// requests into its phases. It answers the paper's motivating question
// concretely: how much of the tail is queueing and service variability
// (what cloning can mask) versus fixed network/CPU path cost (what it
// cannot).
type Breakdown struct {
	// QueueWait is the winning copy's time from server arrival to
	// service start: the dispatcher cost plus the FCFS queue.
	QueueWait stats.Summary
	// Service is the winning copy's worker execution time.
	Service stats.Summary
	// Path is everything else: links, switch passes, client TX/RX, and
	// RX queueing (latency - QueueWait - Service, clamped at 0).
	Path stats.Summary
	// WonByClone counts requests whose switch-made clone (FlagClone)
	// delivered the first response. C-Clone's two copies are both
	// plain requests, so it is 0 there.
	WonByClone int64
	// Sampled is the number of requests accounted for.
	Sampled int64
}

// String summarizes the decomposition.
func (b Breakdown) String() string {
	return fmt.Sprintf("sampled=%d queueWait(p99)=%.1fus service(p99)=%.1fus path(p99)=%.1fus cloneWins=%d",
		b.Sampled, float64(b.QueueWait.P99)/1e3, float64(b.Service.P99)/1e3,
		float64(b.Path.P99)/1e3, b.WonByClone)
}

// Breakdown reduces d's records to the latency breakdown of its
// completed requests. A request the ring does not hold whole — its
// issue record was overwritten at the ring head, or its winning copy
// lacks an arrive, start or finish record — is skipped, not
// miscounted.
func (d *Data) Breakdown() Breakdown {
	var queue, service, path stats.Histogram
	var b Breakdown
	forEachRequest(d, func(r *request) {
		wait, svc, rest, clone, ok := r.phases()
		if !ok {
			return
		}
		queue.Record(wait)
		service.Record(svc)
		path.Record(rest)
		if clone {
			b.WonByClone++
		}
		b.Sampled++
	})
	b.QueueWait, b.Service, b.Path = queue.Summarize(), service.Summarize(), path.Summarize()
	return b
}

// phases splits a whole, completed request's latency at its winning
// copy: the server named by its first KindWin, or, with no KindWin (a
// direct write), the one server it reached. ok is false when the
// request cannot be accounted for; every phase is non-negative when it
// is true.
func (r *request) phases() (wait, svc, path int64, clone, ok bool) {
	done, won := r.first[KindComplete], r.first[KindWin]
	if won == nil {
		won = r.first[KindServerArrive]
	}
	if r.first[KindIssue] == nil || done == nil || won == nil {
		return
	}
	c := r.copies[won.Value]
	if c == nil {
		return
	}
	arrive, start, finish := c[KindServerArrive], c[KindServerStart], c[KindServerFinish]
	if arrive == nil || start == nil || finish == nil {
		return
	}
	wait, svc = start.At-arrive.At, finish.At-start.At
	if wait < 0 || svc < 0 {
		return 0, 0, 0, false, false
	}
	return wait, svc, max(int64(done.Value)-wait-svc, 0), finish.Flags&FlagClone != 0, true
}

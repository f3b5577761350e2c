package udpemu

import (
	"math/rand/v2"
	"time"

	"netclone/internal/simnet"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// OpenLoopConfig parameterizes an open-loop run (§4.2: the paper's client
// "measures the throughput and latency by generating requests at a given
// target sending rate" with exponentially distributed inter-arrivals).
type OpenLoopConfig struct {
	// NumGroups is the switch's group count.
	NumGroups int
	// RatePerSec is the target request rate.
	RatePerSec float64
	// Requests is the total number of requests to send.
	Requests int
	// Mix generates operations; nil means all GETs over Keyspace keys.
	Mix *workload.KVMix
	// Keyspace bounds GET keys when Mix is nil (default 1024).
	Keyspace uint64
	// Drain is how long to wait for stragglers after the last send.
	Drain time.Duration
	// Duplicate sends every request twice with independently drawn
	// group and filter-index fields — client-side static cloning, the
	// C-Clone baseline (§2.1). The faster response settles the request;
	// the slower one is counted by Redundant.
	Duplicate bool
}

// OpenLoopResult reports an open-loop run.
type OpenLoopResult struct {
	Sent int
	// Completed counts every settled request, including those that
	// finished during the Drain window after the last send.
	Completed int64
	// CompletedInWindow counts requests settled within the send window
	// itself — the sustained-throughput numerator.
	CompletedInWindow int64
	// Elapsed is the send-window duration (Drain excluded).
	Elapsed time.Duration
	// AchievedRPS is in-window completions divided by the send window,
	// so drain-time stragglers cannot overstate the sustained rate.
	AchievedRPS float64
}

// RunOpenLoop sends requests at the target rate without waiting for
// responses; the background receiver matches responses to send
// timestamps and records latencies into the client histogram. A failed
// send counts in SendErrors and the run goes on.
func (c *Client) RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if cfg.RatePerSec <= 0 || cfg.Requests <= 0 {
		return OpenLoopResult{}, errBadOpenLoop
	}
	if cfg.Keyspace == 0 {
		cfg.Keyspace = 1024
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 200 * time.Millisecond
	}
	arrival := workload.Poisson{RatePerSec: cfg.RatePerSec}
	rng := simnet.NewRNG(c.cfg.Seed, 0x0197)

	// The pacing loop runs on a thread of its own so that its waits end
	// on time (lockDelayThread, sleepUntil); the thread ends with the
	// loop, and its lowered timer slack with it.
	start := time.Now()
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		lockDelayThread()
		c.pace(cfg, start, arrival, rng)
	}()
	<-paced
	elapsed := time.Since(start)
	inWindow := c.openDone.Load()
	time.Sleep(cfg.Drain)

	// Abandon stragglers so a subsequent run starts clean and their
	// late responses are ignored rather than miscounted as duplicates.
	c.mu.Lock()
	if len(c.abandoned)+len(c.openPending) >= maxAbandoned {
		c.abandoned = make(map[uint32]struct{})
	}
	for seq := range c.openPending {
		c.abandoned[seq] = struct{}{}
	}
	c.openPending = make(map[uint32]time.Time)
	c.mu.Unlock()

	completed := c.openDone.Load()
	c.openDone.Store(0)
	return OpenLoopResult{
		Sent:              cfg.Requests,
		Completed:         completed,
		CompletedInWindow: inWindow,
		Elapsed:           elapsed,
		AchievedRPS:       float64(inWindow) / elapsed.Seconds(),
	}, nil
}

// pace sends cfg.Requests requests at Poisson gaps from start.
func (c *Client) pace(cfg OpenLoopConfig, start time.Time, arrival workload.Poisson, rng *rand.Rand) {
	next := start
	for i := 0; i < cfg.Requests; i++ {
		// Pace against absolute target times so scheduling jitter does
		// not accumulate into rate drift. Going ahead of schedule is the
		// flush point: the ring drains before the sender sleeps, so
		// pacing latency is unaffected while saturated runs amortize
		// one sendmmsg over up to 32 requests.
		next = next.Add(time.Duration(arrival.NextGap(rng)))
		if time.Until(next) > 0 {
			c.flush() //nolint:errcheck // counted in SendErrors
			sleepUntil(next)
		}

		op := workload.OpGet
		var rank uint64
		if cfg.Mix != nil {
			op, rank = cfg.Mix.Next(rng)
		} else {
			rank = rng.Uint64N(cfg.Keyspace)
		}
		span := uint16(0)
		if op == workload.OpScan {
			span = workload.ScanSpan
		}

		c.mu.Lock()
		seq := c.nextSeq
		c.nextSeq++
		c.openPending[seq] = time.Now()
		c.mu.Unlock()

		groups := []int{rng.IntN(maxIntU(cfg.NumGroups, 1))}
		if cfg.Duplicate {
			groups = cclonePair(rng, cfg.NumGroups)
		}
		for _, group := range groups {
			h := wire.Header{
				Type:      wire.TypeReq,
				Group:     uint16(group),
				Idx:       uint8(rng.IntN(c.cfg.FilterTables)),
				ClientID:  c.cfg.ClientID,
				ClientSeq: seq,
				PktTotal:  1,
			}
			c.send(&h, op, rank, span, nil) //nolint:errcheck // counted in SendErrors
		}
	}
	c.flush() //nolint:errcheck // counted in SendErrors
}

// settleOpenLoop is called by the receiver for responses that do not
// match a closed-loop pending channel. It returns true if the response
// settled an open-loop request.
func (c *Client) settleOpenLoop(seq uint32) bool {
	// Caller holds c.mu.
	sentAt, ok := c.openPending[seq]
	if !ok {
		return false
	}
	delete(c.openPending, seq)
	c.hist.Record(time.Since(sentAt).Nanoseconds())
	c.openDone.Add(1)
	return true
}

// cclonePair draws two groups whose first forwarding candidates are
// distinct servers — the C-Clone client's contract (the simulator's
// C-Clone likewise always duplicates to two different servers). The
// switch lays out its numGroups = n*(n-1) ordered pairs as
// group = i*(n-1) + k with first candidate i (see
// dataplane.GroupsWithFirst), so distinct i means distinct first
// servers. Falls back to two independent draws when numGroups is not of
// that form.
func cclonePair(rng *rand.Rand, numGroups int) []int {
	n := serversForGroups(numGroups)
	if n < 2 {
		g := maxIntU(numGroups, 1)
		return []int{rng.IntN(g), rng.IntN(g)}
	}
	i1 := rng.IntN(n)
	i2 := rng.IntN(n - 1)
	if i2 >= i1 {
		i2++
	}
	return []int{i1*(n-1) + rng.IntN(n-1), i2*(n-1) + rng.IntN(n-1)}
}

// serversForGroups inverts numGroups = n*(n-1); it returns 0 when
// numGroups is not a valid ordered-pair count.
func serversForGroups(numGroups int) int {
	for n := 2; n*(n-1) <= numGroups; n++ {
		if n*(n-1) == numGroups {
			return n
		}
	}
	return 0
}

// errBadOpenLoop reports an invalid open-loop configuration.
var errBadOpenLoop = errInvalid("udpemu: open loop needs positive rate and request count")

type errInvalid string

func (e errInvalid) Error() string { return string(e) }

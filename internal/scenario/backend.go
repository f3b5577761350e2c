package scenario

import (
	"netclone/internal/simcluster"
)

// Result is the unified outcome of running a Scenario on any backend.
// It embeds the simulator's full Result — the shared counter vocabulary
// (latency summary, throughput, switch stats, clone drops, redundant
// responses) — plus the executing backend's identity and the counters
// that only a real server/client process can report. Fields that a
// backend cannot measure stay zero: the Emu backend leaves the
// sim-only analysis fields (EmptyQueueFrac, Timeline, Trace) empty,
// and the Sim backend derives ServerProcessed from the switch's
// response count.
type Result struct {
	simcluster.Result

	// Backend names the backend that produced this result ("sim" or
	// "emu").
	Backend string

	// ServerProcessed counts requests actually executed by worker
	// servers, clones included: on Emu the sum of every Server's
	// Processed counter, on Sim the switch's response count (every
	// server response traverses the ToR exactly once).
	ServerProcessed int64

	// ShardInfo reports how a WithShards request was resolved.
	// Zero-valued on the Emu backend.
	ShardInfo ShardInfo

	// SendErrors counts failed socket transmissions across the emu
	// cluster's components (switch, servers, clients).
	// Always 0 on Sim, whose links cannot fail to transmit; a non-zero
	// value on Emu flags host-level socket trouble rather than modelled
	// behavior.
	SendErrors int64
}

// ShardInfo is the remains of the deleted sharded core's diagnostics,
// kept so callers that read it still compile.
type ShardInfo struct {
	// Requested is the WithShards count as given.
	Requested int
	// Effective is always 1: the one sequential engine.
	Effective int
	// Fallback is shardFallback when Requested > 1, empty otherwise.
	Fallback string
}

const shardFallback = "the sharded core was removed; every run uses the sequential engine"

// Backend executes Scenarios. Implementations must be safe for
// concurrent Run calls — the experiment runner executes many scenario
// points at once.
type Backend interface {
	// Name identifies the backend in reports and errors.
	Name() string
	// Run validates and executes one scenario.
	Run(sc *Scenario) (Result, error)
}

// simBackend runs scenarios on the deterministic discrete-event
// simulator.
type simBackend struct{}

// Sim returns the simulator backend: every Scenario maps 1:1 onto a
// simcluster.Config, runs as a single-threaded seed-deterministic event
// loop, and produces bit-identical Results for identical scenarios.
func Sim() Backend { return simBackend{} }

// Name implements Backend.
func (simBackend) Name() string { return "sim" }

// Run implements Backend.
func (simBackend) Run(sc *Scenario) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	res, err := simcluster.Run(sc.Config())
	if err != nil {
		return Result{}, err
	}
	info := ShardInfo{Requested: sc.shards, Effective: 1}
	if sc.shards > 1 {
		info.Fallback = shardFallback
	}
	return Result{
		Result:          res,
		Backend:         "sim",
		ServerProcessed: res.Switch.Responses,
		ShardInfo:       info,
	}, nil
}

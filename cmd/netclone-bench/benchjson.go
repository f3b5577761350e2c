package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"netclone"
	"netclone/internal/simcluster"
	"netclone/internal/udpemu"
	"netclone/internal/workload"
)

// The tracked benchmark pipeline: -benchjson FILE meters every
// experiment run (wall time, simulation events, heap allocations) and
// writes a BENCH_<n>.json snapshot, so the repository's performance
// trajectory is a committed, diffable artifact instead of an anecdote.
// scripts/bench.sh drives this end to end.

// benchFile is the JSON schema of a BENCH_<n>.json snapshot.
//
// Schema history:
//
//	1: experiments + hot_path probe.
//	2: adds host metadata (hardware identity, so compare can tell a real
//	   regression from a hardware change) and the per-experiment "gated"
//	   flag (experiments whose harness never enters the metered backend
//	   — table1/table2 compute closed-form tables, no simulation — are
//	   explicitly excluded from comparison instead of silently recording
//	   zeros). readBenchJSON upgrades schema-1 files on load.
//	3: added a probe of a since-deleted engine; old files' hot_path_sharded field is ignored.
//	4: adds the emu_loopback probe (the UDP emulation's end-to-end
//	   sustained request rate, portable single-syscall path vs the
//	   recvmmsg/sendmmsg ring path, DESIGN.md §12). A nil emu_loopback
//	   means the snapshot predates the probe and compare warn-skips the
//	   emu gate; a nil batched sub-entry means the host has no batch
//	   path compiled in, which skips only the sustained-rate floor.
type benchFile struct {
	Schema      int               `json:"schema"`
	CreatedUTC  string            `json:"created_utc"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Parallel    int               `json:"parallelism"`
	Backend     string            `json:"backend"`
	Host        *benchHost        `json:"host,omitempty"`
	HotPath     *benchHotPath     `json:"hot_path,omitempty"`
	EmuLoopback *benchEmuLoopback `json:"emu_loopback,omitempty"`
	Runs        []benchExperiment `json:"experiments"`
}

// benchHost identifies the hardware a snapshot was taken on. Snapshots
// from different hosts are not comparable as a regression signal, so
// compare downgrades failures to warnings when hosts differ.
type benchHost struct {
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	NumCPU   int    `json:"num_cpu"`
	CPUModel string `json:"cpu_model,omitempty"`
}

// currentHost reads this machine's identity. The CPU model comes from
// /proc/cpuinfo when readable (Linux); elsewhere it stays empty and two
// hosts compare by GOOS/GOARCH/NumCPU alone.
func currentHost() *benchHost {
	return &benchHost{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
		CPUModel: cpuModel(),
	}
}

// cpuModel extracts the first "model name" entry from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sameHost reports whether two snapshots come from comparable hardware.
// A snapshot without host metadata (schema 1) is treated as a different
// host: there is no evidence it is comparable.
func sameHost(a, b *benchHost) bool {
	if a == nil || b == nil {
		return false
	}
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH &&
		a.NumCPU == b.NumCPU && a.CPUModel == b.CPUModel
}

// benchHotPath is the direct engine probe: repeated single simulations
// of the BenchmarkSimulatedMillisecond configuration, sequential so the
// allocation counter is attributable.
type benchHotPath struct {
	Runs         int     `json:"runs"`
	EventsPerSec float64 `json:"events_per_sec"`
	NSPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// benchEmuLoopback is the emu I/O probe: the loopback cluster's
// sustained end-to-end request rate on the portable per-packet syscall
// path (the pre-batching reference, the A/B baseline) and on the
// recvmmsg/sendmmsg ring path. Speedup is batched over portable — on
// hosts with cheap syscalls the two converge and the enforced signal
// is the absolute sustained-rate floor instead (see compare.go).
type benchEmuLoopback struct {
	Portable *benchEmuRate `json:"portable"`
	Batched  *benchEmuRate `json:"batched,omitempty"`
	Speedup  float64       `json:"speedup,omitempty"`
}

// benchEmuRate is one I/O mode's rate-ladder outcome.
type benchEmuRate struct {
	SustainedRPS float64        `json:"sustained_rps"`
	Rungs        []benchEmuRung `json:"rungs"`
}

// benchEmuRung is one offered-rate step of the ladder.
type benchEmuRung struct {
	OfferedRPS    float64 `json:"offered_rps"`
	AchievedRPS   float64 `json:"achieved_rps"`
	CompletedFrac float64 `json:"completed_frac"`
}

// benchExperiment meters one harness experiment end to end. Gated
// marks entries that carry a real simulation signal; closed-form
// experiments (points == 0) set it false so compare skips them instead
// of diffing zeros.
type benchExperiment struct {
	ID             string  `json:"id"`
	Gated          bool    `json:"gated"`
	WallNS         int64   `json:"wall_ns"`
	Points         int64   `json:"points"`
	NSPerPoint     float64 `json:"ns_per_point"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
	Events         int64   `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// mallocs snapshots the process-wide allocation counter. With
// Parallelism > 1 the per-point attribution blurs across workers; the
// totals stay exact.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// meterExperiment runs one experiment under the meter and returns its
// benchmark entry. Points and events are counted by the metered backend
// installed in opts by the caller.
func meterExperiment(id string, opts netclone.Options, mb *meteredBackend) (netclone.Report, benchExperiment, error) {
	mb.reset()
	allocs0 := mallocs()
	start := time.Now()
	report, err := netclone.RunExperiment(id, opts)
	wall := time.Since(start)
	if err != nil {
		return report, benchExperiment{}, err
	}
	dAllocs := float64(mallocs() - allocs0)
	points, events := mb.snapshot()
	e := benchExperiment{
		ID:     id,
		Gated:  points > 0 && events > 0,
		WallNS: wall.Nanoseconds(),
		Points: points,
		Events: events,
	}
	if points > 0 {
		e.NSPerPoint = float64(e.WallNS) / float64(points)
		e.AllocsPerPoint = dAllocs / float64(points)
	}
	if wall > 0 {
		e.EventsPerSec = float64(events) / wall.Seconds()
	}
	return report, e, nil
}

// meterHotPath probes raw simulator throughput: the same configuration
// as BenchmarkSimulatedMillisecond, run sequentially for at least
// minWall, reporting events/sec, ns per run, and allocations per run.
func meterHotPath(minWall time.Duration) (*benchHotPath, error) {
	cfg := simcluster.Config{
		Scheme:     simcluster.NetClone,
		Workers:    []int{16, 16, 16, 16, 16, 16},
		Service:    workload.WithJitter(workload.Exp(25), 0.01),
		OfferedRPS: 1e6,
		WarmupNS:   0,
		DurationNS: 1e6, // one simulated millisecond
	}
	var runs, events int64
	allocs0 := mallocs()
	start := time.Now()
	for time.Since(start) < minWall || runs < 3 {
		cfg.Seed = uint64(runs + 1)
		res, err := simcluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		runs++
		events += res.EngineEvents
	}
	wall := time.Since(start)
	dAllocs := float64(mallocs() - allocs0)
	return &benchHotPath{
		Runs:         int(runs),
		EventsPerSec: float64(events) / wall.Seconds(),
		NSPerOp:      float64(wall.Nanoseconds()) / float64(runs),
		AllocsPerOp:  dAllocs / float64(runs),
	}, nil
}

// meterEmuLoopback probes the UDP emulation's I/O paths: the loopback
// rate ladder (udpemu.LoopbackRateProbe) once on the portable
// single-syscall path and, where the platform compiles the rings in,
// once on the batched path. Both runs share the host, cluster shape,
// and ladder, so the pair is a clean A/B.
func meterEmuLoopback() (*benchEmuLoopback, error) {
	p, err := udpemu.LoopbackRateProbe(udpemu.IOPortable)
	if err != nil {
		return nil, err
	}
	out := &benchEmuLoopback{Portable: benchEmuRateOf(p)}
	if !udpemu.BatchSupported() {
		return out, nil
	}
	b, err := udpemu.LoopbackRateProbe(udpemu.IOBatch)
	if err != nil {
		return nil, err
	}
	out.Batched = benchEmuRateOf(b)
	if p.SustainedRPS > 0 {
		out.Speedup = b.SustainedRPS / p.SustainedRPS
	}
	return out, nil
}

func benchEmuRateOf(r *udpemu.RateProbeResult) *benchEmuRate {
	out := &benchEmuRate{SustainedRPS: r.SustainedRPS}
	for _, rung := range r.Rungs {
		out.Rungs = append(out.Rungs, benchEmuRung{
			OfferedRPS:    rung.OfferedRPS,
			AchievedRPS:   rung.AchievedRPS,
			CompletedFrac: rung.CompletedFrac,
		})
	}
	return out
}

// readBenchJSON loads a snapshot, upgrading older schemas in memory:
// schema-1 files predate the gated flag, so gating is inferred from the
// recorded counters exactly as schema 2 computes it at metering time.
func readBenchJSON(path string) (benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchFile{}, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return benchFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema < 2 {
		for i := range bf.Runs {
			bf.Runs[i].Gated = bf.Runs[i].Points > 0 && bf.Runs[i].Events > 0
		}
	}
	return bf, nil
}

// writeBenchJSON writes the snapshot.
func writeBenchJSON(path string, bf benchFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(bf)
}

// meteredBackend wraps the execution backend to count completed points
// and simulation events without changing results. Run is called from
// the experiment worker pool, so the counters take a mutex.
type meteredBackend struct {
	inner netclone.Backend

	mu     sync.Mutex
	points int64
	events int64
}

func newMeteredBackend(inner netclone.Backend) *meteredBackend {
	return &meteredBackend{inner: inner}
}

// Name implements netclone.Backend.
func (m *meteredBackend) Name() string { return m.inner.Name() }

// Run implements netclone.Backend.
func (m *meteredBackend) Run(sc *netclone.Scenario) (netclone.ScenarioResult, error) {
	res, err := m.inner.Run(sc)
	if err == nil {
		m.mu.Lock()
		m.points++
		m.events += res.EngineEvents
		m.mu.Unlock()
	}
	return res, err
}

func (m *meteredBackend) reset() {
	m.mu.Lock()
	m.points, m.events = 0, 0
	m.mu.Unlock()
}

func (m *meteredBackend) snapshot() (points, events int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.points, m.events
}

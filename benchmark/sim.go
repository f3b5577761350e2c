package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"netclone"
)

// The three simulator workloads. Each slice of a workload does the same
// fixed work at the same seeds, so every slice must produce the same
// result digest (the determinism check costs nothing extra) and the
// only thing that differs between slices is host time.

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    uint64
	seconds float64
	// scale shrinks every slice's work; 1 for a run of record, 1/20
	// for -smoke.
	scale float64
	// golden says whether set-up sweeps the suite against the golden
	// file (runs of record do; the layer run and -smoke do not).
	golden bool
	rec    *recorder // nil with tracing off
	// ref is the host-speed reference the run of record normalises its
	// host times by; nil in the layer run, whose figures are raw.
	ref *hostRef
	res *result
}

// minSlices is the fewest slices a measurement is cut into: three for
// a median to mean something, one in the shortened layer run and in
// -smoke.
func (c *runCtx) minSlices() int {
	if c.res.Trace || c.scale < 1 {
		return 1
	}
	return 3
}

// scaled returns n shrunk by the context's scale, at least 1.
func (c *runCtx) scaled(n int) int {
	return max(int(float64(n)*c.scale), 1)
}

// sliceStat is what one slice of a measurement cost the host.
type sliceStat struct {
	wall, cpu time.Duration // the workload's own, the reference's taken out
	ctxsw     int64
	requests  int64
	// refWall is what refOps operations of the host-speed reference,
	// interleaved with the slice, took; both 0 without a reference.
	refWall time.Duration
	refOps  int64
}

// speed is how fast the host ran during the slice, as a share of the
// reference rate: 1 when there is no reference.
func (s sliceStat) speed() float64 {
	if s.refOps == 0 || s.refWall <= 0 {
		return 1
	}
	return float64(s.refOps) / s.refWall.Seconds() / refNominalOpsPerSec
}

// timedSlices runs one(k) for k = 0, 1, ... until seconds have passed
// (and at least minSlices times), sampling the process's CPU time
// around each call. one returns the requests the slice completed. Every
// slice starts with a call of the reference, and one ticks it as it
// goes; what the reference cost is taken out of the slice's own times.
func timedSlices(seconds float64, minSlices int, ref *hostRef, one func(k int) (int64, error)) ([]sliceStat, error) {
	var out []sliceStat
	start := time.Now()
	for k := 0; time.Since(start).Seconds() < seconds || k < minSlices; k++ {
		u0 := processUsage(false)
		if ref != nil {
			ref.run()
		}
		n, err := one(k)
		u1 := processUsage(false)
		if err != nil {
			return out, err
		}
		refWall, refCPU, refOps := ref.take()
		out = append(out, sliceStat{
			wall: u1.at.Sub(u0.at) - refWall, cpu: u1.cpu - u0.cpu - refCPU,
			ctxsw: u1.ctxsw - u0.ctxsw, requests: n,
			refWall: refWall, refOps: refOps,
		})
	}
	return out, nil
}

// throughput reduces slices to requests per second and CPU microseconds
// per request, one value per slice, in reference seconds: a slice
// measured while the host ran at 0.8 of the reference rate has its times
// multiplied by 0.8. Without a reference these are host seconds.
func throughput(slices []sliceStat) (rps, cpuUS []float64) {
	for _, s := range slices {
		if s.requests == 0 || s.wall <= 0 {
			continue
		}
		rps = append(rps, float64(s.requests)/(s.wall.Seconds()*s.speed()))
		cpuUS = append(cpuUS, float64(s.cpu.Microseconds())*s.speed()/float64(s.requests))
	}
	return rps, cpuUS
}

// hostTime is throughput without the normalisation, and the speeds it
// would have applied: kept in the result file beside the metrics.
func hostTime(slices []sliceStat) (rps, cpuUS, speed []float64) {
	for _, s := range slices {
		if s.requests == 0 || s.wall <= 0 {
			continue
		}
		rps = append(rps, float64(s.requests)/s.wall.Seconds())
		cpuUS = append(cpuUS, float64(s.cpu.Microseconds())/float64(s.requests))
		speed = append(speed, s.speed())
	}
	return rps, cpuUS, speed
}

// simFold accumulates the results of a slice's simulation runs.
type simFold struct {
	runs, failed        int64
	generated, requests int64 // requests issued, requests completed
	events              int64
	// switch pipeline passes by kind
	switchRequests, switchResponses, recirculated int64
	cloned, redundant                             int64
	logP50, logP99                                float64
	latRuns                                       int64
	hash                                          hash.Hash
}

func newSimFold() *simFold { return &simFold{hash: sha256.New()} }

// add folds one run in: counters for the rates, simulated latency for
// the round-trip metrics, every deterministic field into the digest,
// and the invariants any run must satisfy.
func (f *simFold) add(res *netclone.ScenarioResult) {
	f.runs++
	f.generated += res.Generated
	f.requests += res.Completed
	f.events += res.EngineEvents
	f.switchRequests += res.Switch.Requests
	f.switchResponses += res.Switch.Responses
	f.recirculated += res.Switch.Recirculated
	f.cloned += res.Switch.Cloned
	f.redundant += res.RedundantAtClient
	if res.Latency.P50 > 0 && res.Latency.P99 > 0 {
		f.logP50 += math.Log(float64(res.Latency.P50))
		f.logP99 += math.Log(float64(res.Latency.P99))
		f.latRuns++
	}
	if res.Completed > res.Generated || res.Latency.P50 > res.Latency.P99 {
		f.failed++
	}
	fmt.Fprintf(f.hash, "%+v|%+v|%d|%d|%d|%d|%d\n", res.Latency, res.Switch,
		res.Generated, res.Completed, res.EngineEvents, res.CloneDropsAtServer, res.RedundantAtClient)
}

func (f *simFold) digest() string { return hex.EncodeToString(f.hash.Sum(nil)) }

// simulatedRTT returns the geometric mean over the folded runs of each
// run's simulated p50 and p99 request latency, in microseconds. It is
// simulated time, exact for a seed: it moves only when the model does.
func (f *simFold) simulatedRTT() (p50us, p99us float64) {
	if f.latRuns == 0 {
		return 0, 0
	}
	n := float64(f.latRuns)
	return math.Exp(f.logP50/n) / 1e3, math.Exp(f.logP99/n) / 1e3
}

// simLoop runs one scenario at consecutive seeds.
type simLoop struct {
	be   netclone.Backend
	base *netclone.Scenario
	runs int
	seed uint64
	ref  *hostRef // ticked between runs; nil for none
}

// slice executes the loop's runs once. With tracing on, the build of
// each seeded scenario and each Backend.Run get a span under parent.
func (l *simLoop) slice(rec *recorder, parent int32) (*simFold, error) {
	f := newSimFold()
	for i := 0; i < l.runs; i++ {
		l.ref.tick()
		id := int64(i)
		b := rec.begin("scenario.With", parent, id)
		sc := l.base.With(netclone.WithSeed(l.seed + uint64(i)))
		rec.end(b, 0)
		r := rec.begin("Backend.Run", parent, id)
		res, err := l.be.Run(sc)
		rec.end(r, res.Completed)
		if err != nil {
			return f, fmt.Errorf("seed %d: %w", l.seed+uint64(i), err)
		}
		f.add(&res)
	}
	return f, nil
}

// measureSim is the shared body of sim-hotpath and sim-fabric-sharded:
// slices of loop until the time is up, one digest for all of them.
func measureSim(c *runCtx, loop *simLoop, rec *recorder) (*simFold, []sliceStat, error) {
	var first *simFold
	digests := map[string]int{}
	var runs, failed int64
	slices, err := timedSlices(c.seconds, c.minSlices(), loop.ref, func(k int) (int64, error) {
		sp := rec.begin("slice", -1, int64(k))
		f, err := loop.slice(rec, sp)
		rec.end(sp, f.requests)
		runs += f.runs
		failed += f.failed
		if err != nil {
			return 0, err
		}
		digests[f.digest()]++
		if first == nil {
			first = f
		}
		return f.requests, nil
	})
	c.res.Attempted += runs
	c.res.Failed += failed
	if err != nil {
		return first, slices, err
	}
	c.res.verify("slices_share_one_digest", len(digests) == 1,
		"%d distinct result digests over %d slices of identical seeds", len(digests), len(slices))
	c.res.ResultSHA256 = first.digest()
	return first, slices, nil
}

// reportSim fills the end-to-end metrics of a simulator workload.
func reportSim(c *runCtx, f *simFold, slices []sliceStat) {
	reportThroughput(c, slices)
	p50, p99 := f.simulatedRTT()
	c.res.set("rtt_p50_us", p50)
	c.res.set("rtt_p99_us", p99)
}

// reportThroughput fills requests_per_sec and cpu_us_per_request, and
// keeps the host-time figures behind them.
func reportThroughput(c *runCtx, slices []sliceStat) {
	rps, cpuUS := throughput(slices)
	c.res.setSlices("requests_per_sec", rps)
	c.res.setSlices("cpu_us_per_request", cpuUS)
	hostRPS, hostCPU, speed := hostTime(slices)
	c.res.setHost("requests_per_host_sec", "1/s", hostRPS)
	c.res.setHost("cpu_host_us_per_request", "us", hostCPU)
	c.res.setHost("host_speed", "ratio", speed)
}

// setUp times the workload's own preparation three times and reports
// the median, plus the golden sweep (once: it is several seconds of
// fixed work and repeats to a few per cent). Like every host time of a
// run of record, both are in reference seconds.
func setUp(c *runCtx, prepare func() error) error {
	var golden, goldenHost float64
	if c.golden {
		var err error
		golden, goldenHost, err = c.ref.timed(func() error { return goldenSweep(c.res, c.ref) })
		if err != nil {
			return err
		}
	}
	var times, hostTimes []float64
	for i := 0; i < 3; i++ {
		t, host, err := c.ref.timed(prepare)
		if err != nil {
			return err
		}
		times, hostTimes = append(times, t), append(hostTimes, host)
	}
	c.res.Detail["setup_golden_s"] = golden
	c.res.Detail["setup_workload_s"] = median(times)
	c.res.Detail["setup_golden_host_s"] = goldenHost
	c.res.Detail["setup_workload_host_s"] = median(hostTimes)
	c.res.set("setup_s", golden+median(times))
	return nil
}

// ---------------------------------------------------------------------
// sim-hotpath

// hotPathScenario is the configuration BENCH_3..6 record as hot_path
// and BenchmarkSimulatedMillisecond times: NetClone, 6 servers of 16
// workers, Exp(25) with 1% x15 jitter, 1 MRPS, one simulated
// millisecond. It is built on the Scenario surface, not the flat
// Config, because the roadmap deletes the latter.
func hotPathScenario() *netclone.Scenario {
	return netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithServers(6, 16),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(1e6),
		netclone.WithWindow(0, time.Millisecond),
	)
}

// hotPathRuns is a slice's length: about 1.2 s on the reference host.
const hotPathRuns = 1000

func hotPathLoop(c *runCtx) *simLoop {
	return &simLoop{be: netclone.Sim(), base: hotPathScenario(), runs: c.scaled(hotPathRuns), seed: c.seed, ref: c.ref}
}

// warmUp is a simulator workload's preparation: build the scenario
// afresh and run a few seeds of it.
func warmUp(loop *simLoop, build func() *netclone.Scenario, runs int) func() error {
	return func() error {
		warm := simLoop{be: loop.be, base: build(), runs: runs, seed: loop.seed}
		_, err := warm.slice(nil, -1)
		return err
	}
}

func runSimHotPath(c *runCtx) error {
	loop := hotPathLoop(c)
	if err := setUp(c, warmUp(loop, hotPathScenario, c.scaled(hotPathRuns/10))); err != nil {
		return err
	}
	f, slices, err := measureSim(c, loop, nil)
	if err != nil {
		return err
	}
	reportSim(c, f, slices)
	return nil
}

// ---------------------------------------------------------------------
// sim-fabric-sharded

// shardedScenario is the hot_path_sharded probe of BENCH_5..6: NetClone
// over eight racks of three 8-worker servers, eight clients, 3 MRPS,
// four simulated milliseconds — inside the envelope the sharded core
// accepts (multi-rack, positive uplinks, no loss, congestion or
// sampling).
func shardedScenario() *netclone.Scenario {
	racks := make([]netclone.Rack, 8)
	for i := range racks {
		racks[i] = netclone.HomRack(3, 8, 0)
	}
	return netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithRacks(racks...),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithClients(8),
		netclone.WithOfferedLoad(3e6),
		netclone.WithWindow(0, 4*time.Millisecond),
	)
}

// shardedRuns is a slice's length: about 1.4 s at two shards on the
// reference host.
const shardedRuns = 40

// shardedFabric is the scenario as the workload runs it: one shard per
// core, at most four.
func shardedFabric() *netclone.Scenario {
	return shardedScenario().With(netclone.WithShards(min(runtime.NumCPU(), 4)))
}

// shardedLoops returns the workload's loop and the same seeds on the
// sequential engine, the reference the sharded core claims to reproduce
// byte for byte.
func shardedLoops(c *runCtx) (sharded, sequential *simLoop) {
	sharded = &simLoop{be: netclone.Sim(), base: shardedFabric(), runs: c.scaled(shardedRuns), seed: c.seed, ref: c.ref}
	sequential = &simLoop{be: sharded.be, base: shardedScenario(), runs: sharded.runs, seed: c.seed}
	return sharded, sequential
}

func runSimSharded(c *runCtx) error {
	sharded, sequential := shardedLoops(c)
	if err := setUp(c, warmUp(sharded, shardedFabric, c.scaled(4))); err != nil {
		return err
	}
	ref, err := sequential.slice(nil, -1)
	if err != nil {
		return err
	}
	f, slices, err := measureSim(c, sharded, nil)
	if err != nil {
		return err
	}
	c.res.verify("sharded_equals_sequential", f.digest() == ref.digest(),
		"sharded digest %s, sequential %s", f.digest(), ref.digest())
	reportSim(c, f, slices)
	return nil
}

// ---------------------------------------------------------------------
// suite-quick

// suiteOptions is the fidelity of one suite sweep: the golden test's
// (3 ms windows after 1 ms of warm-up, one load, two repeats), so that
// at seed 1 a sweep must reproduce golden.csv byte for byte and a full
// sweep still fits a slice. Points run one at a time.
func suiteOptions(seed uint64) netclone.Options {
	return netclone.Options{
		DurationNS:  3e6,
		WarmupNS:    1e6,
		Seed:        seed,
		LoadFracs:   []float64{0.4},
		Repeats:     2,
		Parallelism: 1,
	}
}

// pointCounter wraps the simulator backend to count what the suite's
// points did. It adds a lock and a few additions per point (a point is
// milliseconds of simulation); with tracing on it also records a span
// per Backend.Run under the experiment that caused it.
type pointCounter struct {
	inner netclone.Backend
	rec   *recorder
	ref   *hostRef // ticked before each point, under mu

	mu     sync.Mutex
	parent int32
	fold   *simFold
}

func (p *pointCounter) Name() string { return p.inner.Name() }

func (p *pointCounter) Run(sc *netclone.Scenario) (netclone.ScenarioResult, error) {
	p.mu.Lock()
	p.ref.tick()
	parent, id := p.parent, p.fold.runs
	p.mu.Unlock()
	sp := p.rec.begin("Backend.Run", parent, id)
	res, err := p.inner.Run(sc)
	p.rec.end(sp, res.Completed)
	if err == nil {
		p.mu.Lock()
		p.fold.add(&res)
		p.mu.Unlock()
	}
	return res, err
}

// sweep runs every experiment once in paper order and renders it as
// CSV, returning the bytes, the fold of every point, and how many
// experiments failed.
func sweep(opts netclone.Options, ref *hostRef, rec *recorder, parent int32) (csv []byte, fold *simFold, failed int64) {
	pc := &pointCounter{inner: netclone.Sim(), rec: rec, ref: ref, parent: parent, fold: newSimFold()}
	opts.Backend = pc
	var out bytes.Buffer
	for i, e := range netclone.Experiments() {
		sp := rec.begin("RunExperiment", parent, int64(i))
		pc.mu.Lock()
		pc.parent = sp
		pc.mu.Unlock()
		report, err := netclone.RunExperiment(e.ID, opts)
		rec.end(sp, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: experiment %s: %v\n", e.ID, err)
			failed++
			continue
		}
		before := out.Len()
		sp = rec.begin("RenderCSV", parent, int64(i))
		err = netclone.RenderCSV(&out, report)
		rec.end(sp, int64(out.Len()-before))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: render %s: %v\n", e.ID, err)
			failed++
		}
	}
	return out.Bytes(), pc.fold, failed
}

// goldenPath is the suite's pinned output, relative to the root of the
// repository, where the benchmark is run from.
const goldenPath = "internal/harness/testdata/golden.csv"

// goldenSweep is the output check every run of record starts with: the
// whole suite at the golden test's options must reproduce the pinned
// file byte for byte. Reading the repository's own pin means a
// documented re-pin never needs a benchmark edit.
func goldenSweep(res *result, ref *hostRef) error {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("golden file (run from the repository root): %w", err)
	}
	got, _, failed := sweep(suiteOptions(1), ref, nil, -1)
	res.verify("golden_csv_byte_equal", failed == 0 && bytes.Equal(got, want),
		"%d experiments failed; rendered %d bytes, golden has %d", failed, len(got), len(want))
	return nil
}

func runSuiteQuick(c *runCtx) error {
	opts := suiteOptions(c.seed)
	if c.scale < 1 {
		// -smoke: a tenth of the window; scale-racks-xl's 102,400
		// clients keep a sweep above a second whatever the window.
		opts.DurationNS, opts.WarmupNS, opts.Repeats = 0.3e6, 0.1e6, 1
	}
	// The golden sweep is this workload's preparation too: the same
	// code, warm.
	if err := setUp(c, func() error { return nil }); err != nil {
		return err
	}
	slices, fold, err := measureSuite(c, opts, nil)
	if err != nil {
		return err
	}
	if c.seed == 1 && c.scale == 1 {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(want)
		c.res.verify("seed1_sweep_is_golden", c.res.ResultSHA256 == hex.EncodeToString(sum[:]),
			"sweep digest %s differs from the golden file's", c.res.ResultSHA256)
	}
	reportSim(c, fold, slices)
	return nil
}

// measureSuite sweeps the suite until the time is up; every sweep of
// one seed must render the same bytes. It returns the first sweep's
// fold.
func measureSuite(c *runCtx, opts netclone.Options, rec *recorder) ([]sliceStat, *simFold, error) {
	var first *simFold
	digests := map[string]int{}
	experiments := int64(len(netclone.Experiments()))
	slices, err := timedSlices(c.seconds, c.minSlices(), c.ref, func(k int) (int64, error) {
		sp := rec.begin("sweep", -1, int64(k))
		csv, fold, failed := sweep(opts, c.ref, rec, sp)
		rec.end(sp, fold.requests)
		c.res.Attempted += experiments
		c.res.Failed += failed + fold.failed
		sum := sha256.Sum256(csv)
		digests[hex.EncodeToString(sum[:])]++
		if first == nil {
			first = fold
			c.res.ResultSHA256 = hex.EncodeToString(sum[:])
			c.res.Detail["points_per_sweep"] = float64(fold.runs)
		}
		return fold.requests, nil
	})
	if err != nil {
		return slices, first, err
	}
	c.res.verify("sweeps_share_one_digest", len(digests) == 1,
		"%d distinct CSV digests over %d sweeps of one seed", len(digests), len(slices))
	return slices, first, nil
}

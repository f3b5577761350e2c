package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"time"

	"netclone"
	"netclone/internal/dataplane"
	"netclone/internal/kvstore"
	"netclone/internal/runner"
	"netclone/internal/simnet"
	"netclone/internal/stats"
	"netclone/internal/trace"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// The layer run. Every layer run first times the unit of work of each
// layer that has one, by calling the layer directly in a loop (the
// repository's micro-benchmarks, recorded instead of printed), then
// re-runs its workload shortened and traced, and derives the counts and
// shares of the layers that workload exercises.

// layerRun is the --trace 1 path of one workload.
func layerRun(c *runCtx, spec workloadSpec) error {
	c.seconds /= 4
	unitCosts(c.res)
	if err := spec.layers(c); err != nil {
		return err
	}
	rss, cycles, pause := procMetrics()
	c.res.set("proc.peak_rss_mb", rss)
	c.res.set("proc.gc_cycles", cycles)
	c.res.set("proc.gc_pause_ms", pause)
	return nil
}

// unitCost times f(n) five times and returns the median nanoseconds per
// operation.
func unitCost(n int, f func(n int)) float64 {
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		f(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// sink keeps the compiler from discarding a probe's work.
var sink int64

// chainHandler reschedules itself: a fixed number of event chains, each
// event scheduling its successor a pseudo-random delay ahead, which is
// how the cluster simulation loads the engine (many short timers in
// flight, not one sorted batch).
type chainHandler struct {
	e    *simnet.Engine
	hid  int32
	left int
	x    uint64
}

func (h *chainHandler) OnEvent(_ uint8, _ any, _ int64) {
	if h.left <= 0 {
		return
	}
	h.left--
	h.x = h.x*6364136223846793005 + 1442695040888963407
	h.e.ScheduleAfter(int64(100+(h.x>>40)%50_000), h.hid, 0, nil, 0)
}

func newBenchSwitch() *dataplane.Switch {
	sw, err := dataplane.New(dataplane.DefaultConfig())
	if err != nil {
		panic(err) // the default configuration is valid by construction
	}
	for sid := uint16(0); sid < 6; sid++ {
		if err := sw.AddServer(sid, uint32(100+sid)); err != nil {
			panic(err) // six servers fit the default table
		}
	}
	return sw
}

// unitCosts fills the per-operation metrics of the layers that have a
// unit of work: about a second in all.
func unitCosts(res *result) {
	res.set("simnet.ns_per_event", unitCost(200_000, func(n int) {
		e := simnet.NewEngine()
		h := &chainHandler{e: e, left: n - 64, x: 1}
		h.hid = e.Register(h)
		for i := 0; i < 64; i++ {
			e.Schedule(int64(i), h.hid, 0, nil, 0)
		}
		e.Run()
		sink += int64(e.Steps())
	}))

	sw := newBenchSwitch()
	groups := sw.NumGroups()
	res.set("dataplane.process_resp_ns", unitCost(200_000, func(n int) {
		for i := 0; i < n; i++ {
			h := wire.Header{Type: wire.TypeResp, SID: uint16(i % 6), ReqID: uint32(i + 1), Clo: wire.CloOriginal, Idx: uint8(i % 2)}
			sink += int64(sw.Process(&h).Act)
		}
	}))
	// Busy servers are never cloned to, so this is the plain request
	// pass; the responses above left every server's state at idle, and
	// one loaded response each marks them busy.
	for sid := uint16(0); sid < 6; sid++ {
		h := wire.Header{Type: wire.TypeResp, SID: sid, State: 1, ReqID: 1, Clo: wire.CloNone}
		sw.Process(&h)
	}
	res.set("dataplane.process_req_ns", unitCost(200_000, func(n int) {
		for i := 0; i < n; i++ {
			h := wire.Header{Type: wire.TypeReq, Group: uint16(i % groups), PktTotal: 1}
			sink += int64(sw.Process(&h).Act)
		}
	}))
	idle := newBenchSwitch()
	res.set("dataplane.clone_recirc_ns", unitCost(200_000, func(n int) {
		for i := 0; i < n; i++ {
			h := wire.Header{Type: wire.TypeReq, Group: uint16(i % groups), PktTotal: 1}
			r := idle.Process(&h)
			if r.Act == dataplane.ActCloneAndForward {
				clone := r.Clone
				sink += int64(idle.Process(&clone).Act)
			}
		}
	}))

	rng := rand.New(rand.NewPCG(1, 2))
	dist := workload.WithJitter(workload.Exp(25), 0.01)
	res.set("workload.exp_draw_ns", unitCost(500_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += dist.Sample(rng)
		}
	}))
	arrival := workload.Poisson{RatePerSec: 1e6}
	res.set("workload.poisson_gap_ns", unitCost(500_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += arrival.NextGap(rng)
		}
	}))
	mix := workload.NewKVMix(0.90, 0.05, emuStoreObjects, emuZipfSkew)
	res.set("workload.kvmix_next_ns", unitCost(500_000, func(n int) {
		for i := 0; i < n; i++ {
			_, rank := mix.Next(rng)
			sink += int64(rank)
		}
	}))

	hist := stats.NewHistogram()
	res.set("stats.record_ns", unitCost(500_000, func(n int) {
		for i := 0; i < n; i++ {
			hist.Record(int64(20_000 + (i*7919)%400_000))
		}
	}))
	// A point summarizes once, after its records: each call here follows
	// a record, so the cached percentile scan is redone as it is there.
	res.set("stats.summarize_us", unitCost(2_000, func(n int) {
		for i := 0; i < n; i++ {
			hist.Record(int64(30_000 + i))
			sink += hist.Summarize().P99
		}
	})/1e3)

	res.set("scenario.build_us", unitCost(5_000, func(n int) {
		for i := 0; i < n; i++ {
			sc := hotPathScenario().With(netclone.WithSeed(uint64(i)))
			if err := sc.Validate(); err != nil {
				panic(err) // the benchmark's own scenario
			}
			cfg, err := sc.Config().Normalized()
			if err != nil {
				panic(err) // as above
			}
			sink += cfg.DurationNS
		}
	})/1e3)
	tasks := make([]int, 1000)
	res.set("runner.dispatch_us_per_task", unitCost(len(tasks), func(int) {
		out, err := runner.Execute(tasks, runner.Options{Parallelism: 1}, func(t int) (int, error) { return t, nil })
		if err != nil {
			panic(err) // no task fails
		}
		sink += int64(len(out))
	})/1e3)

	recorder := trace.NewRecorder(1, 0)
	res.set("trace.record_ns", unitCost(500_000, func(n int) {
		for i := 0; i < n; i++ {
			recorder.Record(trace.Event{At: int64(i), Seq: uint32(i), Kind: trace.Kind(1 + i%4), Value: -1, Port: -1})
		}
	}))

	var pkt [wire.HeaderLen]byte
	hdr := wire.Header{Type: wire.TypeReq, ReqID: 7, Group: 3, ClientID: 1, ClientSeq: 9, PktTotal: 1}
	res.set("wire.marshal_ns", unitCost(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			hdr.ClientSeq = uint32(i)
			m, _ := hdr.MarshalTo(pkt[:]) // the buffer is HeaderLen bytes
			sink += int64(m)
		}
	}))
	res.set("wire.unmarshal_ns", unitCost(1_000_000, func(n int) {
		var h wire.Header
		for i := 0; i < n; i++ {
			m, _ := h.Unmarshal(pkt[:]) // marshalled just above
			sink += int64(m) + int64(h.ClientSeq)
		}
	}))

	store := kvstore.NewStore(emuStoreObjects)
	var val [kvstore.ValueSize]byte
	res.set("kvstore.get_ns", unitCost(500_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(store.Get(uint64(i*7919)%emuStoreObjects, val[:]))
		}
	}))
	res.set("kvstore.scan100_ns", unitCost(20_000, func(n int) {
		for i := 0; i < n; i++ {
			sum, _ := store.Scan(uint64(i*7919)%emuStoreObjects, workload.ScanSpan)
			sink += int64(sum)
		}
	}))
}

// overheadFrac is how much slower the traced side ran, as a share of
// the untraced rate.
func overheadFrac(untraced, traced float64) float64 {
	if traced == 0 {
		return 0
	}
	return untraced/traced - 1
}

// ---------------------------------------------------------------------
// simulator workloads

// simLayers fills the figures every simulator workload derives from
// its own counters: f is one slice's fold, slices the untraced
// measurement.
func simLayers(c *runCtx, f *simFold, slices []sliceStat) {
	rps, _ := throughput(slices)
	var wall time.Duration
	for _, s := range slices {
		wall += s.wall
	}
	c.res.set("simnet.events_per_sec", float64(f.events)*float64(len(slices))/wall.Seconds())
	c.res.set("simcluster.events_per_request", float64(f.events)/float64(f.requests))
	c.res.set("simcluster.ns_per_request", 1e9/median(rps))
	if f.switchRequests > 0 {
		c.res.set("dataplane.clone_frac", float64(f.cloned)/float64(f.switchRequests))
	}
	if f.cloned > 0 {
		c.res.set("dataplane.filter_miss_frac", float64(f.redundant)/float64(f.cloned))
	}
}

// runCosts measures what one run of loop's scenario allocates and what
// it costs before the first simulated event: the same scenario with a
// one-microsecond window is construction and teardown and nothing else.
func runCosts(c *runCtx, loop *simLoop) error {
	probe := *loop
	probe.runs = min(loop.runs, 200)
	u0 := processUsage(true)
	if _, err := probe.slice(nil, -1); err != nil {
		return err
	}
	u1 := processUsage(true)
	c.res.set("simcluster.allocs_per_run", float64(u1.mallocs-u0.mallocs)/float64(probe.runs))

	probe.base = loop.base.With(netclone.WithWindow(0, time.Microsecond))
	t0 := time.Now()
	if _, err := probe.slice(nil, -1); err != nil {
		return err
	}
	c.res.set("simcluster.setup_us_per_run", float64(time.Since(t0).Microseconds())/float64(probe.runs))
	return nil
}

func layersSimHotPath(c *runCtx) error {
	loop := hotPathLoop(c)
	_, tracedSlices, err := measureSim(c, loop, c.rec)
	if err != nil {
		return err
	}
	f, slices, err := measureSim(c, loop, nil)
	if err != nil {
		return err
	}
	simLayers(c, f, slices)
	if err := runCosts(c, loop); err != nil {
		return err
	}

	// The reconciliation: what a request costs minus what the layers
	// under simcluster charge for the units of work it needed.
	m := func(name string) float64 { return c.res.Metrics[name].Value }
	perReq := func(n int64) float64 { return float64(n) / float64(f.requests) }
	below := perReq(f.events)*m("simnet.ns_per_event") +
		perReq(f.switchRequests)*m("dataplane.process_req_ns") +
		perReq(f.switchResponses)*m("dataplane.process_resp_ns") +
		perReq(f.recirculated)*max(m("dataplane.clone_recirc_ns")-m("dataplane.process_req_ns"), 0) +
		perReq(f.switchResponses)*m("workload.exp_draw_ns") + // one service time per executed request
		perReq(f.generated)*m("workload.poisson_gap_ns") +
		m("stats.record_ns")
	total := m("simcluster.ns_per_request")
	c.res.set("simcluster.self_ns_per_request", total-below)
	c.res.set("simcluster.self_share", (total-below)/total)
	c.res.Detail["ledger_below_simcluster_ns_per_request"] = below

	// The simulator's own flight recorder, one request in 64: the same
	// runs with it on and off, interleaved.
	probe := *loop
	probe.runs = min(loop.runs, 200)
	recorded := probe
	recorded.base = loop.base.With(netclone.WithTrace(64, 0))
	var on, off []float64
	for i := 0; i < 3; i++ {
		for _, side := range []struct {
			loop *simLoop
			into *[]float64
		}{{&probe, &off}, {&recorded, &on}} {
			t0 := time.Now()
			if _, err := side.loop.slice(nil, -1); err != nil {
				return err
			}
			*side.into = append(*side.into, time.Since(t0).Seconds())
		}
	}
	c.res.set("trace.sim_overhead_frac", median(on)/median(off)-1)

	tracedRPS, _ := throughput(tracedSlices)
	untracedRPS, _ := throughput(slices)
	c.res.set("bench.trace_overhead_frac", overheadFrac(median(untracedRPS), median(tracedRPS)))
	return nil
}

func layersSimSharded(c *runCtx) error {
	sharded, sequential := shardedLoops(c)

	_, tracedSlices, err := measureSim(c, sharded, c.rec)
	if err != nil {
		return err
	}
	f, slices, err := measureSim(c, sharded, nil)
	if err != nil {
		return err
	}
	ref, seqSlices, err := measureSim(c, sequential, nil)
	if err != nil {
		return err
	}
	c.res.verify("sharded_equals_sequential", f.digest() == ref.digest(),
		"sharded digest %s, sequential %s", f.digest(), ref.digest())
	simLayers(c, f, slices)
	if err := runCosts(c, sharded); err != nil {
		return err
	}

	rps, _ := throughput(slices)
	seqRPS, _ := throughput(seqSlices)
	c.res.set("simcluster.seq_requests_per_sec", median(seqRPS))
	c.res.set("simcluster.shard_speedup", median(rps)/median(seqRPS))
	var cpu, wall time.Duration
	for _, s := range slices {
		cpu += s.cpu
		wall += s.wall
	}
	c.res.set("simcluster.shard_cpu_per_wall", cpu.Seconds()/wall.Seconds())
	one, err := sharded.be.Run(sharded.base.With(netclone.WithSeed(c.seed)))
	if err != nil {
		return err
	}
	c.res.set("simcluster.effective_shards", float64(one.ShardInfo.Effective))
	if one.ShardInfo.Fallback != "" {
		c.res.Notes = append(c.res.Notes, "sharded request fell back to the sequential engine: "+one.ShardInfo.Fallback)
	}

	tracedRPS, _ := throughput(tracedSlices)
	c.res.set("bench.trace_overhead_frac", overheadFrac(median(rps), median(tracedRPS)))
	return nil
}

func layersSuiteQuick(c *runCtx) error {
	opts := suiteOptions(c.seed)
	tracedSlices, _, err := measureSuite(c, opts, c.rec)
	if err != nil {
		return err
	}
	u0 := processUsage(true)
	slices, f, err := measureSuite(c, opts, nil)
	if err != nil {
		return err
	}
	u1 := processUsage(true)
	simLayers(c, f, slices)

	points := float64(f.runs)
	c.res.set("harness.points", points)
	c.res.set("harness.allocs_per_point", float64(u1.mallocs-u0.mallocs)/(points*float64(len(slices))))

	// Where a sweep's time goes, from the spans: an experiment's self
	// time is what the harness spends outside Backend.Run — building
	// the point grid and its scenarios, dispatching, reducing.
	layers := selfTimes(c.rec.snapshot())
	sweepNS := float64(layers["sweep"].TotalNS)
	sweeps := float64(layers["sweep"].Count)
	backend := float64(layers["Backend.Run"].TotalNS)
	overhead := float64(layers["RunExperiment"].SelfNS)
	render := float64(layers["RenderCSV"].TotalNS)
	c.res.set("harness.backend_share", backend/sweepNS)
	c.res.set("harness.overhead_share", overhead/sweepNS)
	c.res.set("harness.render_share", render/sweepNS)
	c.res.set("harness.overhead_us_per_point", overhead/1e3/(points*sweeps))
	c.res.set("harness.render_us_per_report", render/1e3/float64(layers["RenderCSV"].Count))
	if gap := 1 - (backend+overhead+render)/sweepNS; gap > 0.02 || gap < -0.02 {
		c.res.Notes = append(c.res.Notes, fmt.Sprintf("%.1f%% of a sweep is in none of Backend.Run, harness overhead and RenderCSV: a layer is missing from the ledger", 100*gap))
	}

	tracedRPS, _ := throughput(tracedSlices)
	rps, _ := throughput(slices)
	c.res.set("bench.trace_overhead_frac", overheadFrac(median(rps), median(tracedRPS)))
	return nil
}

// ---------------------------------------------------------------------
// emu-loopback

// echoServer is a benchmark-owned stand-in for a worker server: it
// answers every request at once with an empty, idle-state response, so
// that what the generator measures through it is the switch alone.
type echoServer struct {
	conn *net.UDPConn
	done chan struct{}
}

func startEcho(sid uint16, sw *net.UDPAddr) (*echoServer, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	e := &echoServer{conn: conn, done: make(chan struct{})}
	dst := sw.AddrPort()
	go func() {
		defer close(e.done)
		buf := make([]byte, 2048)
		var out [wire.HeaderLen]byte
		for {
			n, _, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			var h wire.Header
			if _, err := h.Unmarshal(buf[:n]); err != nil || h.Type != wire.TypeReq {
				continue
			}
			h.Type, h.SID, h.State, h.PayloadLen = wire.TypeResp, sid, wire.StateIdle, 0
			if _, err := h.MarshalTo(out[:]); err == nil {
				_, _ = conn.WriteToUDPAddrPort(out[:], dst) // a failed send shows as a lost request at the generator
			}
		}
	}()
	return e, nil
}

func (e *echoServer) close() {
	e.conn.Close()
	<-e.done
}

// hop measures one hop in isolation with the generator's closed loop:
// the rate at the saturation window and the median round trip at the
// latency window. Every
// request is a SET, whose right answer is an empty payload whatever
// stands in for the server.
func hop(gen *generator, seconds float64) (rps, p50us float64, failed int64) {
	d := time.Duration(seconds * float64(time.Second) / 2)
	gen.closedLoop(8, d/10, 1, nil, -1) // warm-up, discarded
	sat := gen.closedLoop(saturationWindow, d, 1, nil, -1)
	lat := gen.closedLoop(latencyWindow, d, 1, nil, -1)
	return float64(sat.completed) / sat.slices[0].wall.Seconds(),
		float64(quantileSorted(lat.pooled(), 0.50)) / 1e3,
		sat.failed + lat.failed
}

// allSets is an operation stream of SETs only.
func allSets() *workload.KVMix { return workload.NewKVMix(0, 0, emuStoreObjects, emuZipfSkew) }

func switchHop(c *runCtx, seconds float64) error {
	sw, err := udpemu.NewSwitch("127.0.0.1:0", dataplane.DefaultConfig())
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- sw.Serve() }()
	var echoes []*echoServer
	defer func() {
		sw.Close()
		<-served
		for _, e := range echoes {
			e.close()
		}
	}()
	for sid := uint16(0); sid < 2; sid++ {
		e, err := startEcho(sid, sw.Addr())
		if err != nil {
			return err
		}
		echoes = append(echoes, e)
		if err := sw.AddServer(sid, e.conn.LocalAddr().(*net.UDPAddr)); err != nil {
			return err
		}
	}
	gen, err := newGenerator(sw.NumGroups(), dataplane.DefaultConfig().FilterTables, allSets(), emuStoreObjects, c.seed)
	if err != nil {
		return err
	}
	defer gen.close()
	gen.aim(sw.Addr())
	rps, p50, failed := hop(gen, seconds)
	c.res.set("udpemu.switch_hop_rps", rps)
	c.res.set("udpemu.switch_hop_p50_us", p50)
	c.res.Detail["switch_hop_failed"] = float64(failed)
	return nil
}

func serverHop(c *runCtx, seconds float64) error {
	gen, err := newGenerator(1, 1, allSets(), emuStoreObjects, c.seed)
	if err != nil {
		return err
	}
	defer gen.close()
	// The server answers to its switch; here that is the generator.
	srv, err := udpemu.NewServer("127.0.0.1:0", gen.addr(), udpemu.ServerConfig{
		SID: 0, Workers: 2, Store: kvstore.NewStore(emuStoreObjects),
	})
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-served
	}()
	gen.aim(srv.Addr())
	rps, p50, failed := hop(gen, seconds)
	c.res.set("udpemu.server_hop_rps", rps)
	c.res.set("udpemu.server_hop_p50_us", p50)
	c.res.Detail["server_hop_failed"] = float64(failed)
	return nil
}

// lifecycle times StartCluster and Close on an idle cluster and counts
// goroutines that outlive Close.
func lifecycle(c *runCtx) error {
	before := runtime.NumGoroutine()
	var starts, closes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		cluster, err := udpemu.StartCluster(emuClusterConfig(c.seed, udpemu.IOAuto))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := cluster.Close(); err != nil {
			return err
		}
		starts = append(starts, t1.Sub(t0).Seconds()*1e3)
		closes = append(closes, time.Since(t1).Seconds()*1e3)
	}
	c.res.set("udpemu.start_ms", median(starts))
	c.res.set("udpemu.close_ms", median(closes))
	// Close returns when its goroutines have been told to stop; give
	// them a moment to be gone before calling one leaked.
	leaked := runtime.NumGoroutine() - before
	for wait := 0; leaked > 0 && wait < 20; wait++ {
		time.Sleep(10 * time.Millisecond)
		leaked = runtime.NumGoroutine() - before
	}
	c.res.set("udpemu.goroutines_leaked", float64(max(leaked, 0)))
	return nil
}

// tracedRig runs the emu workload's phases on a fresh rig, with spans
// around StartCluster, the warm-up, each phase and Close when rec is
// set.
func tracedRig(c *runCtx, io udpemu.IOMode, rec *recorder, satOnly bool) (lat, sat phaseResult, counters udpemu.ClusterCounters, err error) {
	root := rec.begin("cluster", -1, 0)
	rig, err := startRig(c.seed, io, emuMix(), c.scaled(emuWarmRequests), rec, root)
	if err != nil {
		return lat, sat, counters, err
	}
	if satOnly {
		total := time.Duration(c.seconds * float64(time.Second))
		sat = rig.gen.closedLoop(saturationWindow, total*4/10, 5, nil, -1)
		counters = checkEmu(c, rig, sat)
	} else {
		sub := *c
		sub.rec = rec
		lat, sat = emuPhases(&sub, rig, root)
		counters = checkEmu(c, rig, lat, sat)
	}
	counters.SendErrors += lat.sendErr + sat.sendErr
	if io == udpemu.IOAuto {
		c.res.Env.EmuIO = ioName(rig.cluster.Batched())
	}
	sp := rec.begin("Close", root, 0)
	err = rig.close()
	rec.end(sp, 0)
	rec.end(root, lat.completed+sat.completed)
	return lat, sat, counters, err
}

func layersEmuLoopback(c *runCtx) error {
	if err := lifecycle(c); err != nil {
		return err
	}
	tlat, tsat, _, err := tracedRig(c, udpemu.IOAuto, c.rec, false)
	if err != nil {
		return err
	}
	lat, sat, counters, err := tracedRig(c, udpemu.IOAuto, nil, false)
	if err != nil {
		return err
	}

	rpsLat, cpuLat := throughput(lat.slices)
	rpsSat, _ := throughput(sat.slices)
	c.res.set("udpemu.window2_rps", median(rpsLat))
	c.res.set("udpemu.window2_cpu_us_per_request", median(cpuLat))
	satP50, _ := sat.quantilesUS(0.50)
	satP99, _ := sat.quantilesUS(0.99)
	c.res.set("udpemu.sat_p50_us", median(satP50))
	c.res.set("udpemu.sat_p99_us", median(satP99))
	pooled := lat.pooled()
	c.res.set("udpemu.rtt_p999_us", float64(quantileSorted(pooled, 0.999))/1e3)
	if supportedTail(len(pooled)) < 0.999 {
		c.res.Notes = append(c.res.Notes, fmt.Sprintf("udpemu.rtt_p999_us rests on %d samples, fewer than ten beyond it", len(pooled)))
	}
	var ctxsw, done int64
	for _, s := range sat.slices {
		ctxsw += s.ctxsw
		done += s.requests
	}
	if done > 0 {
		c.res.set("udpemu.ctxsw_per_request", float64(ctxsw)/float64(done))
	}
	completed := lat.completed + sat.completed
	redundant := lat.redundant + sat.redundant
	if completed > 0 {
		c.res.set("udpemu.redundant_frac", float64(redundant)/float64(completed))
	}
	if counters.Switch.Requests > 0 {
		c.res.set("dataplane.clone_frac", float64(counters.Switch.Cloned)/float64(counters.Switch.Requests))
	}
	if counters.Switch.Cloned > 0 {
		c.res.set("dataplane.filter_miss_frac", float64(redundant)/float64(counters.Switch.Cloned))
	}
	c.res.set("udpemu.rcvbuf_drops", float64(lat.rcvbufDrops+sat.rcvbufDrops))
	c.res.set("udpemu.send_errors", float64(counters.SendErrors))
	c.res.set("udpemu.lost_requests", float64(lat.lost+sat.lost+tlat.lost+tsat.lost))

	tracedLat, _ := throughput(tlat.slices)
	tracedSat, _ := throughput(tsat.slices)
	c.res.set("bench.trace_overhead_frac", max(overheadFrac(median(rpsLat), median(tracedLat)), overheadFrac(median(rpsSat), median(tracedSat))))

	// The reference I/O path, at saturation only.
	_, psat, _, err := tracedRig(c, udpemu.IOPortable, nil, true)
	if err != nil {
		return err
	}
	prps, _ := throughput(psat.slices)
	c.res.set("udpemu.portable_saturation_rps", median(prps))

	if err := openLoop16k(c); err != nil {
		return err
	}
	hopSeconds := max(c.seconds/2, 0.2)
	if err := switchHop(c, hopSeconds); err != nil {
		return err
	}
	return serverHop(c, hopSeconds)
}

// openLoop16k drives the cluster's own open-loop client, the path
// scenario.Emu uses, at 16,000 requests a second and reports what that
// client says the latency was.
func openLoop16k(c *runCtx) error {
	cluster, err := udpemu.StartCluster(emuClusterConfig(c.seed, udpemu.IOAuto))
	if err != nil {
		return err
	}
	defer cluster.Close()
	const rate = 16_000
	seconds := max(c.seconds*0.6, 0.2)
	if _, err := cluster.RunOpenLoop(udpemu.OpenLoopConfig{
		RatePerSec: rate,
		Requests:   int(rate * seconds),
		Mix:        emuMix(),
	}); err != nil {
		return err
	}
	lat := cluster.MergedLatency()
	c.res.set("udpemu.client_open16k_p50_us", float64(lat.P50())/1e3)
	c.res.set("udpemu.client_open16k_p99_us", float64(lat.P99())/1e3)
	return nil
}

package simcluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"netclone/internal/topology"
	"netclone/internal/workload"
)

// perfTestConfigs cover every packet producer and terminal path: the
// NetClone clone/filter cycle, C-Clone's client duplicates and dedup
// misses, LÆDGE's coordinator duplicates and redundant discards, the
// no-filter ablation's unfiltered responses, loss drops, and the
// multi-rack transit paths.
func perfTestConfigs() map[string]Config {
	base := Config{
		Workers:    []int{4, 4, 4, 4},
		Service:    workload.WithJitter(workload.Exp(25), 0.01),
		OfferedRPS: 3e5,
		DurationNS: 3e6,
		WarmupNS:   1e6,
		Seed:       7,
	}
	withScheme := func(s Scheme, mutate func(*Config)) Config {
		c := base
		c.Scheme = s
		if mutate != nil {
			mutate(&c)
		}
		return c
	}
	congested := func(c *Config) {
		*c = twoRack(*c)
		c.Congestion = congTestSpec()
	}
	return map[string]Config{
		"netclone":  withScheme(NetClone, nil),
		"cclone":    withScheme(CClone, nil),
		"laedge":    withScheme(LAEDGE, func(c *Config) { c.NumCoordinators = 2 }),
		"nofilter":  withScheme(NetCloneNoFilter, nil),
		"lossy":     withScheme(NetClone, func(c *Config) { *c = withLoss(*c, 0.01) }),
		"multirack": withScheme(NetClone, func(c *Config) { *c = twoRack(*c) }),
		"sampled":   withScheme(NetClone, func(c *Config) { c.TraceRate = 10 }),
		"congested": withScheme(NetClone, congested),
		"suppress":  withScheme(NetCloneSuppress, congested),
		"adaptive":  withScheme(NetCloneAdaptive, congested),
	}
}

// TestFreelistRecyclingEquivalence proves packet recycling is
// observably inert: every scheme produces identical Results whether
// freed packets are recycled or abandoned to the garbage collector.
func TestFreelistRecyclingEquivalence(t *testing.T) {
	for name, cfg := range perfTestConfigs() {
		t.Run(name, func(t *testing.T) {
			recycled, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			disableFreelist = true
			defer func() { disableFreelist = false }()
			fresh, err := Run(cfg)
			disableFreelist = false
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recycled, fresh) {
				t.Errorf("results differ between recycled and fresh-alloc packets:\nrecycled: %+v\nfresh:    %+v",
					recycled.Latency, fresh.Latency)
			}
		})
	}
}

// TestFreelistPoisonEquivalence runs with poison-on-free forced on: if
// any node read a packet after freeing it, the sentinel values would
// perturb the result. Identical output proves no use-after-free.
func TestFreelistPoisonEquivalence(t *testing.T) {
	for name, cfg := range perfTestConfigs() {
		t.Run(name, func(t *testing.T) {
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			old := poisonFreedPackets
			poisonFreedPackets = true
			defer func() { poisonFreedPackets = old }()
			poisoned, err := Run(cfg)
			poisonFreedPackets = old
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, poisoned) {
				t.Errorf("poison-on-free changed the result: some path reads freed packets\nplain:    %+v\npoisoned: %+v",
					plain.Latency, poisoned.Latency)
			}
		})
	}
}

// TestFreelistNoStateLeak asserts the recycling contract directly: a
// freed packet comes back fully zeroed (no field of the previous
// request survives), and the pool is LIFO so the round trip is cheap.
func TestFreelistNoStateLeak(t *testing.T) {
	old := poisonFreedPackets
	poisonFreedPackets = true
	defer func() { poisonFreedPackets = old }()

	c := &cluster{}
	p := c.newPacket()
	p.hdr.ReqID = 7
	p.hdr.ClientSeq = 99
	p.op = workload.OpScan
	p.direct = true
	p.coordID = 3
	c.freePacket(p)

	if p.coordID == 3 {
		t.Fatal("freePacket did not poison the freed packet")
	}
	q := c.newPacket()
	if q != p {
		t.Fatal("freelist is not LIFO: newPacket did not return the freed packet")
	}
	if *q != (packet{}) {
		t.Errorf("recycled packet carries stale state: %+v", *q)
	}
}

// TestPacketHoldsNoPointers keeps packet pointer-free: a slab of
// pointer-free structs is never scanned by the garbage collector, and
// poison can fill every field of a freed packet with a sentinel, where
// a fake pointer would crash the collector instead of the buggy reader.
func TestPacketHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: packet must hold no pointer", path, typ.Kind())
		}
	}
	walk("packet", reflect.TypeOf(packet{}))
}

// TestRunReportsEngineEvents sanity-checks the events/sec numerator.
func TestRunReportsEngineEvents(t *testing.T) {
	res, err := Run(perfTestConfigs()["netclone"])
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineEvents <= res.Generated {
		t.Errorf("EngineEvents = %d, want more than Generated = %d (every request takes several hops)",
			res.EngineEvents, res.Generated)
	}
}

// benchBuild assembles a warm NetClone cluster for pipeline
// micro-benchmarks.
func benchBuild(b *testing.B, scheme Scheme) *cluster {
	b.Helper()
	cfg := Config{
		Scheme:     scheme,
		Workers:    []int{16, 16, 16, 16, 16, 16},
		Service:    workload.Exp(25),
		OfferedRPS: 1e6,
		DurationNS: 1e9, // window far beyond the benchmark's virtual time
		Seed:       1,
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	c, err := build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSwitchPipelineRoundTrip measures one full simulated request
// through the switch pipeline model: client request creation, switch
// processing (including clone + recirculation when both candidates are
// idle), server dispatch/service/response, response filtering, and
// client RX completion. Steady state is allocation-free: the packet
// comes from the freelist and every hop is a typed event.
func BenchmarkSwitchPipelineRoundTrip(b *testing.B) {
	c := benchBuild(b, NetClone)
	cl := &c.clients[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i)
		p := cl.makeRequest(seq, workload.OpGet, cl.pickGroup(), false)
		cl.putPending(seq, pendingReq{sentAt: c.eng.Now()})
		c.sw.fromClient(p)
		c.eng.Run()
	}
}

// BenchmarkSwitchPipelineCClone is the same round trip under C-Clone:
// two duplicate packets per request, client-side dedup, one redundant
// response through the dedup-miss path.
func BenchmarkSwitchPipelineCClone(b *testing.B) {
	c := benchBuild(b, CClone)
	cl := &c.clients[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i)
		now := c.eng.Now()
		cl.putPending(seq, pendingReq{sentAt: now})
		p1 := cl.makeRequest(seq, workload.OpGet, cl.groupWithFirst(0), false)
		p2 := cl.makeRequest(seq, workload.OpGet, cl.groupWithFirst(1), false)
		cl.sendPacket(p1, now)
		cl.sendPacket(p2, now)
		c.eng.Run()
	}
}

// BenchmarkClusterSteadyState measures whole-cluster throughput per
// simulated request with construction amortized away: one cluster, one
// open-loop schedule, b.N virtual microseconds of offered load.
func BenchmarkClusterSteadyState(b *testing.B) {
	c := benchBuild(b, NetClone)
	c.startClients()
	b.ReportAllocs()
	b.ResetTimer()
	// Advance virtual time 1us per iteration; at 1 MRPS that is one
	// request per iteration on average.
	for i := 0; i < b.N; i++ {
		c.eng.RunUntil(int64(i+1) * 1000)
	}
}

// benchFabricConfig is the three-rack leaf–spine fabric (clients share
// rack 0 with two servers, the rest are behind heterogeneous uplinks)
// used by the N-rack steady-path benchmarks — and, with a congestion
// spec added, by the congested variants in congestion_test.go.
func benchFabricConfig() Config {
	return Config{
		Scheme: NetClone,
		Topology: topology.New(
			topology.Rack{Servers: []int{16, 16}},
			topology.Rack{Servers: []int{16, 16}, Uplink: 2 * time.Microsecond},
			topology.Rack{Servers: []int{16, 16}, Uplink: 500 * time.Nanosecond},
		),
		Service:    workload.Exp(25),
		OfferedRPS: 1e6,
		DurationNS: 1e9, // window far beyond the benchmark's virtual time
		Seed:       1,
	}
}

// benchBuildFabric assembles a warm NetClone cluster on the three-rack
// fabric for the N-rack steady-path benchmarks.
func benchBuildFabric(tb testing.TB) *cluster {
	tb.Helper()
	cfg, err := benchFabricConfig().Normalized()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestTopologySteadyPathZeroAllocs guards the fabric layer's
// performance contract: routing across an N-rack fabric is hoisted
// scalar reads (per-server home ToR, per-rack transit delays), so the
// per-event steady path allocates nothing more than the single-rack
// path does.
func TestTopologySteadyPathZeroAllocs(t *testing.T) {
	c := benchBuildFabric(t)
	c.startClients()
	// Warm up: freelist and histograms reach their high-water marks.
	deadline := int64(20e6)
	c.eng.RunUntil(deadline)
	allocs := testing.AllocsPerRun(50, func() {
		deadline += 100_000 // 100us of virtual time per round
		c.eng.RunUntil(deadline)
	})
	// Tolerate the rare amortized map/slice growth, as the fault-path
	// guard does, but catch any per-event or per-packet allocation
	// (hundreds per round).
	if allocs > 1 {
		t.Errorf("fabric steady path allocates %.1f allocs per 100us round, want ~0", allocs)
	}
}

// BenchmarkClusterSteadyStateMultiRack is BenchmarkClusterSteadyState
// on the three-rack fabric — the tracked N-rack micro-benchmark
// (README § Benchmarking, CI bench-smoke) guarding that the topology
// generalization does not regress the 0 allocs/op steady path.
func BenchmarkClusterSteadyStateMultiRack(b *testing.B) {
	c := benchBuildFabric(b)
	c.startClients()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.eng.RunUntil(int64(i+1) * 1000)
	}
}

// BenchmarkClusterSteadyStateTraced is the multi-rack steady-state
// benchmark with the flight recorder sampling every 64th request — the
// tracked cost of *enabled* tracing (README § Benchmarking, CI
// bench-smoke). Record writes into the preallocated ring, so allocs/op
// must stay at the untraced baseline's ~0.
func BenchmarkClusterSteadyStateTraced(b *testing.B) {
	cfg := benchFabricConfig()
	cfg.TraceRate = 64
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	c, err := build(ncfg)
	if err != nil {
		b.Fatal(err)
	}
	c.startClients()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.eng.RunUntil(int64(i+1) * 1000)
	}
}

// TestPktFIFOCompaction pins the bounded-capacity property: a queue
// that never fully drains must not grow its backing array without
// bound (one slot per push for the whole run).
func TestPktFIFOCompaction(t *testing.T) {
	var q pktFIFO
	live := 8
	for i := 0; i < live; i++ {
		q.push(&packet{})
	}
	// Steady state: one push + one pop per cycle, never draining.
	for i := 0; i < 100_000; i++ {
		q.push(&packet{})
		if got := q.pop(); got == nil {
			t.Fatal("pop returned nil")
		}
		if q.len() != live {
			t.Fatalf("queue length drifted: %d", q.len())
		}
	}
	if cap(q.buf) > 4*live+64 {
		t.Fatalf("backing array grew without bound: cap %d for %d live elements", cap(q.buf), live)
	}
	// Drain and verify contents survive compaction in order.
	q2 := pktFIFO{}
	var want []*packet
	for i := 0; i < 100; i++ {
		p := &packet{coordID: i}
		q2.push(p)
		want = append(want, p)
	}
	var got []*packet
	for j := 0; q2.len() > 0; j++ {
		got = append(got, q2.pop())
		if j%3 == 0 { // interleave pushes to exercise compaction mid-stream
			p := &packet{coordID: 1000 + j}
			q2.push(p)
			want = append(want, p)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO order broken at %d after compaction", i)
		}
	}
}

// xlFabricConfig is the scale-racks-xl shape: racks x 3 servers x 8
// threads, NetClone at 30% load, with a 1 us window so a Run is
// construction and teardown and next to no simulation.
func xlFabricConfig(racks, clients int) Config {
	rs := make([]topology.Rack, racks)
	for r := range rs {
		rs[r] = topology.HomRack(3, 8, 0)
	}
	return Config{
		Scheme:     NetClone,
		Topology:   topology.New(rs...),
		NumClients: clients,
		Service:    workload.Exp(25),
		OfferedRPS: 0.3 * float64(racks*3*8) / 25e-6,
		DurationNS: 1000,
		Seed:       1,
	}
}

// TestConstructionAllocsIndependentOfClientCount pins linear-time,
// slab-allocated construction: building a 16-rack fabric costs a fixed
// allocation budget (per-switch tables dominate it), and quadrupling the
// client population adds slab bytes, not allocations.
func TestConstructionAllocsIndependentOfClientCount(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 25,600-client fabrics")
	}
	allocsFor := func(clients int) float64 {
		cfg := xlFabricConfig(16, clients)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsFor(6400), allocsFor(25600)
	t.Logf("16 racks: %.0f allocs with 6,400 clients, %.0f with 25,600", small, large)
	// About 320 measured: 16 switches' small registers and address
	// tables, the clients' ToR's group table and filter registers, the
	// entity slabs, engine growth, the result. The pre-slab build spent
	// three per client (77,461).
	const bound = 1000
	if large > bound {
		t.Errorf("building 16 racks with 25,600 clients allocates %.0f times, want <= %d", large, bound)
	}
	if large > 2*small {
		t.Errorf("allocations scale with clients: %.0f at 25,600 vs %.0f at 6,400", large, small)
	}
}

// xlRunConfig is xlFabricConfig through the scale-racks-xl window at
// the golden fidelity: 1 ms of warm-up plus 3 ms measured.
func xlRunConfig(racks, clients int) Config {
	cfg := xlFabricConfig(racks, clients)
	cfg.WarmupNS, cfg.DurationNS = 1e6, 3e6
	return cfg
}

// TestRunAllocsIndependentOfClientCount extends the construction
// guard to a whole run: the offered load is the same at 6,400 and at
// 25,600 clients, so is the work, and so must be the allocations — a
// node that allocates on its first event (a client's first queued
// response, say) costs allocations in proportion to the clients that
// respond, which quadruple here.
func TestRunAllocsIndependentOfClientCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 25,600-client fabrics")
	}
	allocsFor := func(clients int) float64 {
		cfg := xlRunConfig(16, clients)
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsFor(6400), allocsFor(25600)
	t.Logf("16 racks, 4 ms: %.0f allocs with 6,400 clients, %.0f with 25,600", small, large)
	if large > 1.25*small {
		t.Errorf("run allocations scale with clients: %.0f at 25,600 vs %.0f at 6,400, want at most 1.25x", large, small)
	}
}

// TestRunLeavesNoHeapBehind runs the largest scale-racks-xl point and
// requires the heap to return to within 4 MiB of where it started once
// two collections have run: pools may hold a run's backings until the
// next collection, and nothing population-sized may outlive that. The
// benchmark of record sweeps the whole suite before it measures the
// emulator in the same process, so what a sim run leaves behind costs
// the emulator's measurement.
func TestRunLeavesNoHeapBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 102,400-client fabric")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(xlFabricConfig(64, 102400)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap %d B before the run, %d B after it and two collections", before.HeapAlloc, after.HeapAlloc)
	if grew > 4<<20 {
		t.Errorf("a 64-rack, 102,400-client run leaves %d KiB on the heap after two collections, want at most 4096", grew>>10)
	}
}

// BenchmarkBuildFabricXL times construction at scale-racks-xl's
// largest point — 64 racks, 192 servers, 102,400 clients — through a
// 1 us window, the way the benchmark of record's
// simcluster.setup_us_per_run does (README § Benchmarking, CI
// bench-smoke).
func BenchmarkBuildFabricXL(b *testing.B) {
	cfg := xlFabricConfig(64, 102400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFabricXL runs scale-racks-xl's largest point — 64 racks,
// 192 servers, 102,400 clients — through its 1 ms warm-up and 3 ms
// window (README § Benchmarking, CI bench-smoke), and reports the cost
// per engine event beside the events of one run.
func BenchmarkRunFabricXL(b *testing.B) {
	cfg := xlRunConfig(64, 102400)
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.EngineEvents
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

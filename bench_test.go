// Benchmarks that regenerate the paper's evaluation artifacts: one
// testing.B per table and figure (plus the ablations), each running the
// corresponding harness experiment at reduced fidelity per iteration, and
// micro-benchmarks of the switch data plane itself.
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=BenchmarkFig7a         # one figure
//
// Full-fidelity reproduction is the netclone-bench command:
//
//	go run ./cmd/netclone-bench -run all
//
// Allocation-reporting micro-benchmarks of the hot-path layers live
// next to their packages; README § Benchmarking runs them together:
//
//	internal/simnet     BenchmarkEngineTyped*           (typed event engine)
//	internal/simcluster BenchmarkSwitchPipeline*        (per-request pipeline, freelist)
//	internal/workload   BenchmarkZipfRank, BenchmarkKVMixNext, BenchmarkPoissonGap
//	internal/stats      BenchmarkSummarizeFrozen        (cached percentile scan)
package netclone_test

import (
	"testing"

	"netclone"
	"netclone/internal/dataplane"
	"netclone/internal/simcluster"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// benchOpts returns per-iteration experiment options small enough for
// testing.B yet large enough that the figures' qualitative shape holds.
func benchOpts() netclone.Options {
	return netclone.Options{
		DurationNS: 10e6,
		WarmupNS:   2e6,
		Seed:       1,
		LoadFracs:  []float64{0.3, 0.8},
		Repeats:    2,
	}
}

// benchExperiment runs one named experiment per iteration — points
// sequential, isolating per-point simulation cost — and reports the p99
// of its last series' last point when the result is a figure.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := benchOpts()
	opts.Parallelism = 1
	benchExperimentOpts(b, id, opts)
}

// benchExperimentOpts is benchExperiment with explicit options.
func benchExperimentOpts(b *testing.B, id string, opts netclone.Options) {
	b.Helper()
	var lastP99 float64
	for i := 0; i < b.N; i++ {
		report, err := netclone.RunExperiment(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(report.Series); n > 0 {
			pts := report.Series[n-1].Points
			if len(pts) > 0 {
				lastP99 = pts[len(pts)-1].Y
			}
		}
	}
	if lastP99 > 0 {
		b.ReportMetric(lastP99, "p99-us")
	}
}

// --- Tables ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// --- Fig 7: synthetic workloads ---

func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }

// BenchmarkFig7aParallel is BenchmarkFig7a with the worker pool sized to
// the machine (Parallelism 0 = GOMAXPROCS). Comparing the two shows the
// wall-time win of the parallel experiment-execution layer; the reports
// themselves are byte-identical.
func BenchmarkFig7aParallel(b *testing.B) {
	opts := benchOpts()
	opts.Parallelism = 0
	benchExperimentOpts(b, "fig7a", opts)
}
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B) { benchExperiment(b, "fig7c") }
func BenchmarkFig7d(b *testing.B) { benchExperiment(b, "fig7d") }

// --- Fig 8: comparison with C-Clone and LÆDGE ---

func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }

// --- Fig 9: number of servers ---

func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// --- Fig 10: RackSched integration ---

func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }
func BenchmarkFig10c(b *testing.B) { benchExperiment(b, "fig10c") }
func BenchmarkFig10d(b *testing.B) { benchExperiment(b, "fig10d") }

// --- Fig 11/12: Redis and Memcached ---

func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

// --- Fig 13: state-signal confidence ---

func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }

// --- Fig 14: low variability ---

func BenchmarkFig14a(b *testing.B) { benchExperiment(b, "fig14a") }
func BenchmarkFig14b(b *testing.B) { benchExperiment(b, "fig14b") }

// --- Fig 15: response filtering ablation ---

func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// --- Fig 16: switch failure ---

func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// --- Design-choice ablations (DESIGN.md §3) ---

func BenchmarkAblCloneDrop(b *testing.B)    { benchExperiment(b, "abl-clonedrop") }
func BenchmarkAblGroupOrder(b *testing.B)   { benchExperiment(b, "abl-grouporder") }
func BenchmarkAblFilterTables(b *testing.B) { benchExperiment(b, "abl-filtertables") }
func BenchmarkAblCoordCost(b *testing.B)    { benchExperiment(b, "abl-coordcost") }
func BenchmarkAblMultiCoord(b *testing.B)   { benchExperiment(b, "abl-multicoord") }

// --- Extensions (§3.6-3.7 mechanisms the paper described but did not evaluate) ---

func BenchmarkExtMultiRack(b *testing.B) { benchExperiment(b, "ext-multirack") }
func BenchmarkExtLoss(b *testing.B)      { benchExperiment(b, "ext-loss") }

// --- Data-plane micro-benchmarks: the per-packet cost of the switch
// pipeline model (the ASIC does this in ~400ns at line rate).

func newBenchSwitch(b *testing.B) *dataplane.Switch {
	b.Helper()
	cfg := dataplane.DefaultConfig()
	cfg.FilterSlots = 1 << 17
	sw, err := dataplane.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for sid := uint16(0); sid < 6; sid++ {
		if err := sw.AddServer(sid, uint32(100+sid)); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

func BenchmarkSwitchProcessRequest(b *testing.B) {
	sw := newBenchSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := wire.Header{Type: wire.TypeReq, Group: uint16(i % sw.NumGroups()), PktTotal: 1}
		sw.Process(&h)
	}
}

func BenchmarkSwitchProcessResponse(b *testing.B) {
	sw := newBenchSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := wire.Header{
			Type: wire.TypeResp, SID: uint16(i % 6), State: 0,
			ReqID: uint32(i + 1), Clo: wire.CloOriginal, Idx: uint8(i % 2),
		}
		sw.Process(&h)
	}
}

func BenchmarkSwitchCloneAndRecirculate(b *testing.B) {
	sw := newBenchSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := wire.Header{Type: wire.TypeReq, Group: uint16(i % sw.NumGroups()), PktTotal: 1}
		res := sw.Process(&h)
		if res.Act == dataplane.ActCloneAndForward {
			clone := res.Clone
			sw.Process(&clone)
		}
	}
}

// BenchmarkSimulatedMillisecond measures simulator throughput: how much
// wall time one simulated NetClone run costs per simulated millisecond.
// It drives simcluster.Run directly, so the allocation count is the
// simulator's own.
func BenchmarkSimulatedMillisecond(b *testing.B) {
	cfg := simcluster.Config{
		Scheme:     simcluster.NetClone,
		Workers:    []int{16, 16, 16, 16, 16, 16},
		Service:    workload.WithJitter(workload.Exp(25), 0.01),
		OfferedRPS: 1e6,
		WarmupNS:   0,
		DurationNS: 1e6, // one simulated millisecond
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := simcluster.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the switch data plane and of the simulator as a
// whole. The paper's tables and figures are regenerated by the
// netclone-bench command, not by testing.B:
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

	"netclone/internal/dataplane"
	"netclone/internal/simcluster"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

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

package runner

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"netclone/internal/simcluster"
	"netclone/internal/workload"
)

// smallCfg returns a cheap but non-trivial simulation point.
func smallCfg(seed uint64) simcluster.Config {
	return simcluster.Config{
		Scheme:     simcluster.NetClone,
		Workers:    []int{4, 4},
		Service:    workload.Exp(25),
		OfferedRPS: 50_000,
		WarmupNS:   1e6,
		DurationNS: 4e6,
		Seed:       seed,
	}
}

func TestRunMatchesSequential(t *testing.T) {
	cfgs := make([]simcluster.Config, 7)
	for i := range cfgs {
		cfgs[i] = smallCfg(uint64(i + 1))
	}
	seq, err := Execute(cfgs, Options{Parallelism: 1}, simcluster.Run)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Execute(cfgs, Options{Parallelism: 4}, simcluster.Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("point %d differs between sequential and parallel execution", i)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	res, err := Execute([]simcluster.Config(nil), Options{}, simcluster.Run)
	if err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

func TestRunOrderingAndBound(t *testing.T) {
	const n, limit = 32, 3
	cfgs := make([]simcluster.Config, n)
	for i := range cfgs {
		cfgs[i] = simcluster.Config{Seed: uint64(i)}
	}
	var active, peak atomic.Int64
	exec := func(cfg simcluster.Config) (simcluster.Result, error) {
		a := active.Add(1)
		for {
			p := peak.Load()
			if a <= p || peak.CompareAndSwap(p, a) {
				break
			}
		}
		defer active.Add(-1)
		return simcluster.Result{Generated: int64(cfg.Seed)}, nil
	}
	res, err := Execute(cfgs, Options{Parallelism: limit}, exec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Generated != int64(i) {
			t.Fatalf("result %d holds point %d: ordering not deterministic", i, r.Generated)
		}
	}
	if p := peak.Load(); p > limit {
		t.Errorf("observed %d concurrent points, limit %d", p, limit)
	}
}

func TestRunAggregatesErrors(t *testing.T) {
	cfgs := make([]simcluster.Config, 5)
	exec := func(cfg simcluster.Config) (simcluster.Result, error) {
		if cfg.Seed%2 == 0 {
			return simcluster.Result{}, fmt.Errorf("boom %d", cfg.Seed)
		}
		return simcluster.Result{Generated: 1}, nil
	}
	for i := range cfgs {
		cfgs[i].Seed = uint64(i)
	}
	res, err := Execute(cfgs, Options{Parallelism: 2}, exec)
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	// Every point ran despite the failures.
	for _, i := range []int{1, 3} {
		if res[i].Generated != 1 {
			t.Errorf("successful point %d missing its result", i)
		}
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap a PointError", err)
	}
	// All three failing indices are recoverable from the joined error.
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error %T is not a joined error", err)
	}
	got := map[int]bool{}
	for _, e := range joined.Unwrap() {
		var p *PointError
		if errors.As(e, &p) {
			got[p.Index] = true
		}
	}
	if !got[0] || !got[2] || !got[4] || len(got) != 3 {
		t.Errorf("failed indices = %v, want {0,2,4}", got)
	}
}

func TestRunInvalidConfigError(t *testing.T) {
	cfgs := []simcluster.Config{smallCfg(1), {}} // second config is invalid
	_, err := Execute(cfgs, Options{Parallelism: 2}, simcluster.Run)
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("err = %v, want PointError for index 1", err)
	}
}

func TestRunProgress(t *testing.T) {
	cfgs := make([]simcluster.Config, 9)
	for i := range cfgs {
		cfgs[i] = smallCfg(uint64(i + 1))
	}
	var mu sync.Mutex
	var dones []int
	_, err := Execute(cfgs, Options{
		Parallelism: 3,
		OnProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(cfgs) {
				t.Errorf("total = %d, want %d", total, len(cfgs))
			}
			dones = append(dones, done)
		},
	}, simcluster.Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(cfgs) {
		t.Fatalf("progress fired %d times, want %d", len(dones), len(cfgs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress sequence %v not strictly increasing", dones)
		}
	}
}

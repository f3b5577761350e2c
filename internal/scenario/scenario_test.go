package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"netclone/internal/congestion"
	"netclone/internal/faults"
	"netclone/internal/kvstore"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// validBase returns options describing a well-formed scenario.
func validBase() []Option {
	return []Option{
		WithScheme(simcluster.NetClone),
		WithServers(6, 16),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(1e6),
		WithWindow(50*time.Millisecond, 200*time.Millisecond),
		WithSeed(1),
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := New(validBase()...).Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestValidateRejections is the table-driven pass over every uniform
// rejection: each case builds a scenario with exactly one contradiction
// and asserts the error both fires and names the offending option.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
		want string // substring of the actionable message
	}{
		{
			name: "no servers",
			sc:   New(WithWorkload(workload.Exp(25)), WithOfferedLoad(1e5), WithWindow(0, time.Millisecond)),
			want: "no servers",
		},
		{
			name: "one server",
			sc:   New(validBase()...).With(WithTopology(16)),
			want: "at least two servers",
		},
		{
			name: "zero workers",
			sc:   New(validBase()...).With(WithTopology(16, 0)),
			want: "worker threads",
		},
		{
			name: "no workload",
			sc:   New(WithServers(2, 4), WithOfferedLoad(1e5), WithWindow(0, time.Millisecond)),
			want: "no workload",
		},
		{
			name: "two workloads",
			sc: New(validBase()...).With(
				WithKVWorkload(workload.NewKVMix(0.9, 0.1, 100, 0.99), kvstore.Redis())),
			want: "exactly one",
		},
		{
			name: "zero rate",
			sc:   New(validBase()...).With(WithOfferedLoad(0)),
			want: "offered load",
		},
		{
			name: "negative rate",
			sc:   New(validBase()...).With(WithOfferedLoad(-5)),
			want: "offered load",
		},
		{
			name: "zero duration",
			sc:   New(validBase()...).With(WithWindow(time.Millisecond, 0)),
			want: "duration",
		},
		{
			name: "negative warmup",
			sc:   New(validBase()...).With(WithWindow(-time.Millisecond, time.Millisecond)),
			want: "warmup",
		},
		{
			name: "negative clients",
			sc:   New(validBase()...).With(WithClients(-1)),
			want: "clients",
		},
		{
			name: "unknown scheme",
			sc:   New(validBase()...).With(WithScheme(simcluster.Scheme(42))),
			want: "unknown scheme",
		},
		{
			name: "too many filter tables",
			sc:   New(validBase()...).With(WithFilter(300, 1<<10)),
			want: "filter tables",
		},
		{
			name: "filter slots not a power of two",
			sc:   New(validBase()...).With(WithFilter(2, 1000)),
			want: "power of two",
		},
		{
			name: "loss probability one",
			sc:   New(validBase()...).With(WithLoss(1)),
			want: "loss probability",
		},
		{
			name: "loss probability negative",
			sc:   New(validBase()...).With(WithLoss(-0.1)),
			want: "loss probability",
		},
		{
			name: "switch failure without recovery",
			sc:   New(validBase()...).With(WithFaultInjections(faults.SwitchOutage(time.Second, 0))),
			want: "recovery",
		},
		{
			name: "switch recovery before failure",
			sc:   New(validBase()...).With(WithFaultInjections(faults.SwitchOutage(2*time.Second, time.Second))),
			want: "not after failure",
		},
		{
			name: "switch recovery equals failure",
			sc:   New(validBase()...).With(WithFaultInjections(faults.SwitchOutage(time.Second, time.Second))),
			want: "not after failure",
		},
		{
			name: "fault plan crash target out of range",
			sc: New(validBase()...).With(WithFaults(faults.New(
				faults.ServerCrash(6, time.Millisecond, 2*time.Millisecond)))),
			want: "servers 0..5",
		},
		{
			name: "fault plan overlapping crashes",
			sc: New(validBase()...).With(WithFaults(faults.New(
				faults.ServerCrash(0, time.Millisecond, 5*time.Millisecond),
				faults.ServerCrash(0, 2*time.Millisecond, 6*time.Millisecond)))),
			want: "overlap",
		},
		{
			name: "fault plan slowdown factor zero",
			sc: New(validBase()...).With(WithFaults(faults.New(
				faults.ServerSlowdown(0, 0, time.Millisecond, 0, 0)))),
			want: "factor",
		},
		{
			name: "multirack LAEDGE",
			sc: New(validBase()...).With(
				WithScheme(simcluster.LAEDGE),
				WithRacks(topology.Rack{}, topology.HomRack(6, 16, 0))),
			want: "multi-rack",
		},
		{
			name: "coordinators without LAEDGE",
			sc:   New(validBase()...).With(WithCoordinators(3)),
			want: "LAEDGE only",
		},
		{
			name: "single coordinator without LAEDGE",
			sc:   New(validBase()...).With(WithCoordinators(1)),
			want: "LAEDGE only",
		},
		{
			name: "negative coordinators",
			sc:   New(validBase()...).With(WithScheme(simcluster.LAEDGE), WithCoordinators(-1)),
			want: "coordinators",
		},
		{
			name: "congestion zero queue cap",
			sc:   New(validBase()...).With(WithCongestion(congestion.New().WithQueueCap(0))),
			want: "WithQueueCap",
		},
		{
			name: "congestion mark threshold at cap",
			sc:   New(validBase()...).With(WithCongestion(congestion.New().WithQueueCap(8).WithMarkThreshold(8))),
			want: "WithMarkThreshold",
		},
		{
			name: "congestion zero link rate",
			sc:   New(validBase()...).With(WithLinkRate(0)),
			want: "WithLinkRate",
		},
		{
			name: "negative trace rate",
			sc:   New(validBase()...).With(WithTrace(-1, 0)),
			want: "trace rate",
		},
		{
			name: "negative trace capacity",
			sc:   New(validBase()...).With(WithTrace(1, -8)),
			want: "ring capacity",
		},
		{
			name: "trace capacity without rate",
			sc:   New(validBase()...).With(WithTrace(0, 1024)),
			want: "without a sampling rate",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatalf("invalid scenario accepted: %+v", tc.sc.Config())
			}
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Errorf("error %q missing the uniform prefix", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOptionMapping checks that every option lands on the documented
// Config field — the contract the Sim backend's byte-identical
// guarantee rests on.
func TestOptionMapping(t *testing.T) {
	mix := workload.NewKVMix(0.9, 0.1, 1000, 0.99)
	cal := simcluster.DefaultCalibration()
	cal.LinkDelayNS = 777
	sc := New(
		WithScheme(simcluster.NetCloneRackSched),
		WithTopology(15, 15, 8),
		WithClients(3),
		WithKVWorkload(mix, kvstore.Memcached()),
		WithOfferedLoad(123456),
		WithWindow(10*time.Millisecond, 40*time.Millisecond),
		WithSeed(99),
		WithCalibration(cal),
		WithFilter(4, 1<<9),
		WithLoss(0.01),
		WithTimeline(time.Millisecond),
		WithTrace(64, 4096),
		WithoutCloneDropGuard(),
		WithSingleOrderingGroups(),
	)
	cfg := sc.Config()
	if cfg.Scheme != simcluster.NetCloneRackSched ||
		len(cfg.Workers) != 3 || cfg.Workers[2] != 8 ||
		cfg.NumClients != 3 ||
		cfg.Mix != mix || cfg.Cost.Name != "memcached" ||
		cfg.OfferedRPS != 123456 ||
		cfg.WarmupNS != 10e6 || cfg.DurationNS != 40e6 ||
		cfg.Seed != 99 ||
		cfg.Cal.LinkDelayNS != 777 ||
		cfg.FilterTables != 4 || cfg.FilterSlots != 1<<9 ||
		cfg.TimelineBinNS != 1e6 ||
		cfg.TraceRate != 64 || cfg.TraceCap != 4096 ||
		!cfg.DisableServerCloneDrop || !cfg.SingleOrderingGroups {
		t.Fatalf("option mapping wrong: %+v", cfg)
	}
	// WithLoss is a thin wrapper over a one-entry fault plan: a
	// constant whole-run loss window.
	inj := cfg.Faults.Injections()
	if len(inj) != 1 || inj[0].Kind != faults.KindLoss ||
		inj[0].StartProb != 0.01 || inj[0].EndProb != 0.01 ||
		inj[0].FromNS != 0 || inj[0].UntilNS != int64(faults.Forever) {
		t.Fatalf("WithLoss plan mapping wrong: %+v", inj)
	}

	// WithCongestion sets the spec; WithLinkRate derives from whatever
	// spec is current (defaults when none), in either option order.
	spec := congestion.New().WithQueueCap(32)
	cong := New(WithCongestion(spec), WithLinkRate(2.5)).Config()
	if cong.Congestion.QueueCap() != 32 || cong.Congestion.EdgeGbps() != 2.5 {
		t.Fatalf("congestion option mapping wrong: %+v", cong.Congestion)
	}
	if spec.EdgeGbps() != congestion.DefaultEdgeGbps {
		t.Fatal("WithLinkRate mutated the caller's spec")
	}
	if solo := New(WithLinkRate(1)).Config(); solo.Congestion == nil ||
		solo.Congestion.EdgeGbps() != 1 ||
		solo.Congestion.QueueCap() != congestion.DefaultQueueCap {
		t.Fatalf("WithLinkRate without a spec mapping wrong: %+v", solo.Congestion)
	}
	// WithFaults replaces, WithFaultInjections composes.
	plan := faults.New(faults.ServerCrash(0, time.Millisecond, 2*time.Millisecond))
	composed := New(WithLoss(0.5), WithFaults(plan), WithFaultInjections(faults.Loss(0, time.Second, 0.1))).Config()
	ci := composed.Faults.Injections()
	if len(ci) != 2 || ci[0].Kind != faults.KindServerCrash || ci[1].Kind != faults.KindLoss || ci[1].StartProb != 0.1 {
		t.Fatalf("WithFaults/WithFaultInjections composition wrong: %+v", ci)
	}
}

// TestWithDerivesCopies checks the builder's immutability contract: With
// must never mutate the receiver, so one base scenario can fan out.
func TestWithDerivesCopies(t *testing.T) {
	base := New(validBase()...)
	variant := base.With(WithScheme(simcluster.Baseline), WithTopology(4, 4))
	if base.Config().Scheme != simcluster.NetClone {
		t.Error("With mutated the receiver's scheme")
	}
	if len(base.Config().Workers) != 6 {
		t.Error("With mutated the receiver's topology")
	}
	if variant.Config().Scheme != simcluster.Baseline || len(variant.Config().Workers) != 2 {
		t.Errorf("variant did not apply options: %+v", variant.Config())
	}
}

// TestEmuRejectsCongestion: the loopback emulation has no link-queue
// model, so congested scenarios — and the schemes that react to the
// congestion signal — are sim-only.
func TestEmuRejectsCongestion(t *testing.T) {
	base := New(
		WithScheme(simcluster.NetClone),
		WithServers(2, 2),
		WithWorkload(workload.Exp(25)),
		WithOfferedLoad(100),
		WithWindow(0, 10*time.Millisecond),
	)
	cases := []struct {
		name string
		sc   *Scenario
		want string
	}{
		{"congestion model", base.With(WithCongestion(congestion.New())), "WithCongestion"},
		{"link-rate shorthand", base.With(WithLinkRate(1)), "WithCongestion/WithLinkRate"},
		{"suppress scheme", base.With(WithScheme(simcluster.NetCloneSuppress)), "congestion signal"},
		{"adaptive scheme", base.With(WithScheme(simcluster.NetCloneAdaptive)), "congestion signal"},
	}
	be := Emu()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := be.Run(tc.sc)
			if err == nil {
				t.Fatal("congested scenario accepted by the Emu backend")
			}
			if !errors.Is(err, ErrSimOnly) {
				t.Errorf("error %v does not wrap ErrSimOnly", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

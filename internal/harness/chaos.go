package harness

import (
	"fmt"
	"time"

	"netclone/internal/faults"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// The chaos-* experiment family exercises the fault-injection subsystem
// (internal/faults, DESIGN.md §7) beyond the paper's two robustness
// figures: stragglers, decaying loss bursts, and rolling server crashes
// on the same calibrated cluster. Like fig16, every time constant
// derives from the per-point duration, so Quick() options shrink the
// whole schedule proportionally, and every experiment is deterministic
// in (Options.Seed, Options.DurationNS) — the chaos-* family is covered
// by TestParallelDeterminism and the golden pin like every other
// experiment.

// registerChaos registers the chaos experiment family. Called last from
// the package init, so the chaos experiments append to the paper-order
// registry (and to the golden file) after the ablations.
func registerChaos() {
	registerChaosStraggler()
	registerChaosLossBurst()
	registerChaosRollingCrash()
}

// chaosBase returns the shared cluster shape: the fig7a workload on the
// default 6x16 topology.
func chaosBase() (*scenario.Scenario, float64) {
	dist := workload.WithJitter(workload.Exp(25), highVariability)
	base := synthetic(dist, homWorkers(defaultServers, synthThreads))
	return base, capacityOf(base)
}

// degradedP99Point reduces one faulted run to its degraded-window tail:
// the p99 latency (us) of completions inside the fault windows.
func degradedP99Point(x float64) func(scenario.Result) Point {
	return func(res scenario.Result) Point {
		var p99 float64
		if res.Faults != nil {
			p99 = float64(res.Faults.Degraded.P99) / 1e3
		}
		return Point{X: x, Y: p99}
	}
}

// timeToRecoverNote reduces a timeline run to the recovery headline:
// how long after the last fault window the throughput first regains 90%
// of its pre-fault baseline. faultStartNS/faultEndNS bound the full
// fault schedule.
func timeToRecoverNote(label string, res scenario.Result, faultStartNS, faultEndNS int64) string {
	if res.Timeline == nil {
		return label + ": no timeline recorded"
	}
	rate := res.Timeline.Rate()
	bin := res.Timeline.BinWidth()
	pre := int(faultStartNS / bin) // bins [0, pre) end before the faults start
	if pre < 1 || pre > len(rate) {
		return label + ": no pre-fault bins to baseline against"
	}
	var base float64
	for _, r := range rate[:pre] {
		base += r
	}
	base /= float64(pre)
	first := int((faultEndNS + bin - 1) / bin) // first bin at/after recovery
	for i := first; i < len(rate); i++ {
		if base == 0 || rate[i] >= 0.9*base {
			return fmt.Sprintf("%s: throughput back to >=90%% of the pre-fault baseline %.2f s after the faults end",
				label, float64(int64(i)*bin-faultEndNS)/1e9)
		}
	}
	return label + ": throughput did not regain 90% of its pre-fault baseline within the run"
}

// timelineSeries converts a timeline into the throughput-vs-time series
// shape shared with fig16.
func timelineSeries(label string, res scenario.Result) Series {
	s := Series{Label: label}
	bin := res.Timeline.BinWidth()
	for i, r := range res.Timeline.Rate() {
		s.Points = append(s.Points, Point{X: float64(i) * float64(bin) / 1e9, Y: r / 1e6})
	}
	return s
}

// requireSim rejects non-sim backends for experiments built on
// simulator-only capabilities (named by reason): the error wraps
// ErrSimOnly so whole-suite sweeps skip instead of aborting.
func requireSim(id string, opts Options, reason string) error {
	if name := opts.backend().Name(); name != "sim" {
		return fmt.Errorf("%s: %s modelled only by the sim backend, not %q (%w); drop Options.Backend for this experiment",
			id, reason, name, scenario.ErrSimOnly)
	}
	return nil
}

// requireSimChaos is requireSim with the chaos family's reason.
func requireSimChaos(id string, opts Options) error {
	return requireSim(id, opts, "fault injection and timelines are")
}

// ---------------------------------------------------------------------
// chaos-straggler — degraded-window tail vs straggler severity

func registerChaosStraggler() {
	register(&Experiment{
		ID:    "chaos-straggler",
		Title: "Straggler sweep: degraded-window p99 vs slowdown factor",
		Paper: "extension (fault subsystem)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimChaos("chaos-straggler", opts); err != nil {
				return Report{}, err
			}
			base, cap := chaosBase()
			factors := []float64{1.5, 2, 4, 8}
			// One server turns straggler across the middle half of the
			// measurement window, ramping up over the first tenth.
			from := time.Duration(opts.WarmupNS + opts.DurationNS/4)
			until := time.Duration(opts.WarmupNS + (3*opts.DurationNS)/4)
			ramp := time.Duration(opts.DurationNS / 10)
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.CClone, simcluster.NetClone}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for fi, factor := range factors {
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.35*cap),
						windowOf(opts),
						// Seeds are paired per factor: every scheme sees the
						// same arrival/service randomness, so the delta
						// isolates how each scheme absorbs the straggler.
						scenario.WithSeed(opts.Seed+uint64(fi)),
						scenario.WithFaults(faults.New(
							faults.ServerSlowdown(0, from, until, factor, ramp))),
					)
					plan.point(sid, fmt.Sprintf("%s at %gx", scheme, factor), sc,
						degradedP99Point(factor))
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "chaos-straggler", Title: "Degraded-window p99 vs straggler slowdown, Exp(25), 35% load",
				XLabel: "Slowdown factor (x)", YLabel: "Degraded 99% latency (us)",
				Series: series,
				Notes: []string{
					"Server 0 runs its service times at the given multiple across the middle",
					"half of the window (linear ramp over the first tenth). The y-axis is the",
					"p99 of completions inside the straggler window only (Result.Faults.Degraded).",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// chaos-lossburst — recovery curve after a decaying loss burst

func registerChaosLossBurst() {
	register(&Experiment{
		ID:    "chaos-lossburst",
		Title: "Loss-burst recovery: throughput timeline under a decaying burst",
		Paper: "extension (fault subsystem, cf. Fig 16)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimChaos("chaos-lossburst", opts); err != nil {
				return Report{}, err
			}
			base, cap := chaosBase()
			// Fig 16's derived time scale: the run spans 60 units, the
			// burst hits at 20 and decays away by 35.
			unit := opts.DurationNS
			burstFrom, burstUntil := 20*unit, 35*unit
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			specs := make([]RunSpec, len(schemes))
			for i, scheme := range schemes {
				specs[i] = RunSpec{
					Label: fmt.Sprintf("chaos-lossburst %s", scheme),
					Scenario: base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.4*cap),
						scenario.WithWindow(0, time.Duration(60*unit)),
						scenario.WithSeed(opts.Seed),
						scenario.WithTimeline(time.Duration(2*unit)),
						scenario.WithFaults(faults.New(faults.LossRamp(
							time.Duration(burstFrom), time.Duration(burstUntil), 0.6, 0.05))),
					),
				}
			}
			results, err := runSpecs(specs, opts)
			if err != nil {
				return Report{}, err
			}
			report := Report{
				ID: "chaos-lossburst", Title: "Throughput under a decaying loss burst (60% -> 5% per-link)",
				Kind:   ReportTimeline,
				XLabel: "Time (s)", YLabel: "Throughput (MRPS)",
				Notes: []string{
					"Per-link loss ramps linearly from 60% down to 5% across the burst window",
					"(bins 10..17 of 30, scaled by options), then stops.",
				},
			}
			for i, scheme := range schemes {
				report.Series = append(report.Series, timelineSeries(scheme.String(), results[i]))
				report.Notes = append(report.Notes,
					timeToRecoverNote(scheme.String(), results[i], burstFrom, burstUntil))
			}
			return report, nil
		},
	})
}

// ---------------------------------------------------------------------
// chaos-rollingcrash — rolling server crashes and availability

func registerChaosRollingCrash() {
	register(&Experiment{
		ID:    "chaos-rollingcrash",
		Title: "Rolling server crashes: availability and recovery",
		Paper: "extension (fault subsystem)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimChaos("chaos-rollingcrash", opts); err != nil {
				return Report{}, err
			}
			base, cap := chaosBase()
			unit := opts.DurationNS
			// Servers 0, 1, 2 crash back to back: each is down for 8
			// units, the next goes down 2 units after the previous
			// recovers.
			plan := faults.New(
				faults.ServerCrash(0, time.Duration(12*unit), time.Duration(20*unit)),
				faults.ServerCrash(1, time.Duration(22*unit), time.Duration(30*unit)),
				faults.ServerCrash(2, time.Duration(32*unit), time.Duration(40*unit)),
			)
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			specs := make([]RunSpec, len(schemes))
			for i, scheme := range schemes {
				specs[i] = RunSpec{
					Label: fmt.Sprintf("chaos-rollingcrash %s", scheme),
					Scenario: base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.5*cap),
						scenario.WithWindow(0, time.Duration(60*unit)),
						scenario.WithSeed(opts.Seed),
						scenario.WithTimeline(time.Duration(2*unit)),
						scenario.WithFaults(plan),
					),
				}
			}
			results, err := runSpecs(specs, opts)
			if err != nil {
				return Report{}, err
			}
			report := Report{
				ID: "chaos-rollingcrash", Title: "Throughput under rolling server crashes (3 of 6 servers, one at a time)",
				Kind:   ReportTimeline,
				XLabel: "Time (s)", YLabel: "Throughput (MRPS)",
				Notes: []string{
					"Servers 0, 1, 2 crash in sequence (bins 6..20 of 30, scaled by options);",
					"each crash drops the server's queue and in-flight work, and the pool",
					"restarts empty on recovery. Requests routed to a down server are lost.",
				},
			}
			for i, scheme := range schemes {
				report.Series = append(report.Series, timelineSeries(scheme.String(), results[i]))
				report.Notes = append(report.Notes,
					timeToRecoverNote(scheme.String(), results[i], 12*unit, 40*unit))
				if f := results[i].Faults; f != nil {
					report.Notes = append(report.Notes, fmt.Sprintf(
						"%s: %d packets dropped at crashed servers, max %d server down at once",
						scheme, f.DroppedPackets, f.ServersDownMax))
				}
			}
			return report, nil
		},
	})
}

// ---------------------------------------------------------------------
// chaos-2rack — backend-portable two-rack chaos

// registerChaosTwoRack registers chaos-2rack. Called dead last from the
// package init (after registerScaleXL), so its golden rows append after
// every earlier family.
func registerChaosTwoRack() {
	register(&Experiment{
		ID:    "chaos-2rack",
		Title: "Two-rack chaos: completed fraction under crash + loss",
		Paper: "extension (emu fault parity, DESIGN.md §12)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			// Deliberately no requireSim: the definition uses only
			// capabilities both backends express — a two-rack fabric
			// behind delay lines and the socket-expressible fault kinds
			// — so Options.Backend = scenario.Emu() runs it unchanged on
			// real sockets (the CI emu chaos smoke does exactly that).
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			base := scenario.New(
				scenario.WithRacks(
					topology.HomRack(2, synthThreads, 0),
					topology.HomRack(2, synthThreads, 2*time.Microsecond),
				),
				scenario.WithWorkload(dist),
			)
			cap := capacityOf(base)
			// Server 0 crashes across the middle half of the window and a
			// 15% loss window covers the second half's start — both scale
			// with the per-point duration, so Quick() shrinks the whole
			// schedule proportionally.
			crashFrom := time.Duration(opts.WarmupNS + opts.DurationNS/4)
			crashUntil := time.Duration(opts.WarmupNS + (3*opts.DurationNS)/4)
			lossFrom := time.Duration(opts.WarmupNS + opts.DurationNS/2)
			lossUntil := time.Duration(opts.WarmupNS + (7*opts.DurationNS)/8)
			chaos := faults.New(
				faults.ServerCrash(0, crashFrom, crashUntil),
				faults.Loss(lossFrom, lossUntil, 0.15),
			)
			loads := []float64{0.3, 0.6}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for li, load := range loads {
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(load*cap),
						windowOf(opts),
						// Seeds pair per load point so the scheme delta
						// isolates how each absorbs the same chaos.
						scenario.WithSeed(opts.Seed+uint64(li)),
						scenario.WithFaults(chaos),
					)
					load := load
					plan.point(sid, fmt.Sprintf("%s at %d%%", scheme, int(load*100)), sc,
						func(res scenario.Result) Point {
							var frac float64
							if res.Generated > 0 {
								frac = float64(res.Completed) / float64(res.Generated)
							}
							return Point{X: load, Y: frac}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "chaos-2rack", Title: "Completed fraction under a server crash + loss window, two racks",
				XLabel: "Offered load (fraction of capacity)", YLabel: "Completed fraction",
				Series: series,
				Notes: []string{
					"Server 0 (rack 0) is down across the middle half of the window and a 15%",
					"per-link loss window covers [1/2, 7/8); requests lost to either count",
					"against the completed fraction. Runs on both the sim and emu backends.",
				},
			}, nil
		},
	})
}

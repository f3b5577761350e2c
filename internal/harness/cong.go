package harness

import (
	"fmt"
	"time"

	"netclone/internal/congestion"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// The cong-* experiment family exercises the congestion subsystem
// (internal/congestion, DESIGN.md §9): finite link queues with ECN
// marking and tail-drop at every ToR and spine egress port, and the
// two schemes that react to the signal. The incast sweep drives the
// client down-ports into overload, the spine sweep oversubscribes the
// fabric, and the crossover sweep shows where congestion-reactive
// cloning overtakes fixed cloning. Every experiment is deterministic
// in Options.Seed with seeds paired across schemes, and the family is
// covered by the golden pin like every other experiment.

// registerCongestion registers the congestion experiment family.
// Called last from the package init (after registerScale), so the
// cong-* experiments append to the paper-order registry — and to the
// golden file — after everything that existed before them.
func registerCongestion() {
	registerCongIncast()
	registerCongSpine()
	registerCongCrossover()
	registerCongTimeline()
}

// requireSimCong is requireSim with the congestion family's reason.
func requireSimCong(id string, opts Options) error {
	return requireSim(id, opts, "link queues and the congestion signal are")
}

// congDist is the family's shared workload: the fig7a shape.
func congDist() workload.Dist {
	return workload.WithJitter(workload.Exp(25), highVariability)
}

// ---------------------------------------------------------------------
// cong-incast — edge-rate sweep into client-port overload

func registerCongIncast() {
	register(&Experiment{
		ID:    "cong-incast",
		Title: "Incast sweep: p99 vs edge link rate",
		Paper: "extension (congestion subsystem)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimCong("cong-incast", opts); err != nil {
				return Report{}, err
			}
			base := synthetic(congDist(), homWorkers(defaultServers, synthThreads))
			cap := capacityOf(base)
			// The whole offered load funnels back through two client
			// down-ports: slowing the edge sweeps those ports from
			// comfortable (10 Gbps) to several times oversubscribed.
			rates := []float64{10, 5, 2.5, 1.25}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for ri, rate := range rates {
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithCongestion(congestion.New().WithLinkRate(rate)),
						scenario.WithOfferedLoad(0.3*cap),
						windowOf(opts),
						// Seeds are paired per rate: both schemes see the same
						// randomness, so the delta isolates cloning behaviour
						// at that rate.
						scenario.WithSeed(opts.Seed+uint64(ri)),
					)
					plan.point(sid, fmt.Sprintf("%s at %g Gbps", scheme, rate), sc,
						func(res scenario.Result) Point {
							return Point{X: rate, Y: float64(res.Latency.P99) / 1e3}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "cong-incast", Title: "p99 vs edge link rate (6x16 servers, 2 clients, 30% load)",
				XLabel: "Edge link rate (Gbps)", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Every response crosses one of two client down-ports, so the edge rate",
					"sets the incast bottleneck: past saturation the tail is the full-queue",
					"sojourn (64 packets x the serialization time), and tail-drop sheds the",
					"excess. Requests and responses queue alike; marks echo to the clients.",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// cong-spine — oversubscribed-spine sweep on a three-rack fabric

func registerCongSpine() {
	register(&Experiment{
		ID:    "cong-spine",
		Title: "Oversubscribed spine: p99 vs fabric rate on three racks",
		Paper: "extension (congestion subsystem, cf. scale-racks)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimCong("cong-spine", opts); err != nil {
				return Report{}, err
			}
			base := scenario.New(
				scenario.WithRacks(
					topology.HomRack(3, 8, 0),
					topology.HomRack(3, 8, 0),
					topology.HomRack(3, 8, 0),
				),
				scenario.WithWorkload(congDist()),
			)
			cap := capacityOf(base)
			// Two thirds of the traffic crosses the clients' ToR uplink
			// and the spine; sweeping the fabric rate down from 40 Gbps
			// oversubscribes that path while the 10 Gbps edge stays fixed.
			rates := []float64{40, 10, 5, 2.5}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for ri, rate := range rates {
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithCongestion(congestion.New().WithSpineRate(rate)),
						scenario.WithOfferedLoad(0.45*cap),
						windowOf(opts),
						scenario.WithSeed(opts.Seed+uint64(ri)),
					)
					plan.point(sid, fmt.Sprintf("%s at %g Gbps spine", scheme, rate), sc,
						func(res scenario.Result) Point {
							return Point{X: rate, Y: float64(res.Latency.P99) / 1e3}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "cong-spine", Title: "p99 vs spine rate (3 racks x 3x8 servers, clients on rack 0, 45% load)",
				XLabel: "Fabric link rate (Gbps)", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Cross-rack requests chain through the source ToR's uplink and the",
					"destination rack's spine egress port (two finite queues per crossing);",
					"responses cross back toward the clients' rack. The edge ports stay at",
					"10 Gbps, so all added tail is fabric queueing.",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// cong-crossover — fixed vs congestion-reactive cloning under incast

func registerCongCrossover() {
	register(&Experiment{
		ID:    "cong-crossover",
		Title: "Cloning under congestion: fixed vs suppressed vs adaptive budget",
		Paper: "extension (congestion subsystem; near-source suppression per SFC, budget per Kimad)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimCong("cong-crossover", opts); err != nil {
				return Report{}, err
			}
			// A small cluster on a slow edge: the client down-ports
			// saturate inside the standard load grid, so the sweep shows
			// the crossover — at low load fixed cloning wins (idle
			// capacity absorbs the clones), past the knee the clones
			// amplify queueing and the reactive variants overtake it.
			base := synthetic(congDist(), homWorkers(4, 4)).With(
				scenario.WithCongestion(congestion.New().WithLinkRate(2.5)))
			series, err := pairedSweepPlan(base, schemeSeries([]simcluster.Scheme{
				simcluster.NetClone,
				simcluster.NetCloneSuppress,
				simcluster.NetCloneAdaptive,
			}), capacityOf(base), opts).run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "cong-crossover", Title: "Fixed vs congestion-reactive cloning (4x4 servers, 2.5 Gbps edge)",
				XLabel: "Throughput (MRPS)", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Seeds are paired across schemes, so the gap is the clone gate alone.",
					"Suppress skips a clone while its egress or return port sits past the",
					"ECN threshold; Adaptive spends a token budget refilled by port headroom.",
					"Both degrade to exact NetClone when the model is off or queues are short.",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// cong-timeline — queue depth and drops over time under overload

func registerCongTimeline() {
	register(&Experiment{
		ID:    "cong-timeline",
		Title: "Congestion timeline: throughput, queue depth, and drops over time",
		Paper: "extension (congestion subsystem, cf. fig16)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimCong("cong-timeline", opts); err != nil {
				return Report{}, err
			}
			base := synthetic(congDist(), homWorkers(defaultServers, synthThreads))
			cap := capacityOf(base)
			unit := opts.DurationNS
			sc := base.With(
				scenario.WithScheme(simcluster.NetClone),
				scenario.WithCongestion(congestion.New().WithLinkRate(2.5)),
				scenario.WithOfferedLoad(0.3*cap),
				scenario.WithWindow(0, time.Duration(30*unit)),
				scenario.WithSeed(opts.Seed),
				scenario.WithTimeline(time.Duration(unit)),
			)
			results, err := runSpecs([]RunSpec{{Label: "cong-timeline", Scenario: sc}}, opts)
			if err != nil {
				return Report{}, err
			}
			res := results[0]
			if res.Timeline == nil || res.Congestion == nil {
				return Report{}, fmt.Errorf("cong-timeline: backend %q recorded no congested timeline; run on the Sim backend", opts.backend().Name())
			}
			report := Report{
				ID: "cong-timeline", Title: "NetClone on a 2.5 Gbps edge: throughput, occupancy, drops per bin",
				Kind:   ReportTimeline,
				XLabel: "Time (s)", YLabel: "Throughput (MRPS)",
				Series: []Series{timelineSeries("NetClone", res)},
				Notes: []string{
					"The queue depth series is the time-averaged total packets queued across",
					"all ports per bin; the drops series counts tail-drops per bin. Both ride",
					"in this report in their own units (packets, drops) next to the MRPS",
					"throughput — netclone-bench -timeline emits them as extra CSV columns.",
				},
			}
			binS := float64(sc.Config().TimelineBinNS) / 1e9
			depth := Series{Label: TimelineDepthLabel}
			for i, d := range res.Congestion.DepthBins {
				depth.Points = append(depth.Points, Point{X: float64(i) * binS, Y: d})
			}
			drops := Series{Label: TimelineDropsLabel}
			for i, d := range res.Congestion.DropBins {
				drops.Points = append(drops.Points, Point{X: float64(i) * binS, Y: float64(d)})
			}
			report.Series = append(report.Series, depth, drops)
			return report, nil
		},
	})
}

// Aux-series labels of timeline reports: netclone-bench folds series
// with these labels into the queue_depth / drops CSV columns instead
// of emitting them as rows of their own.
const (
	TimelineDepthLabel = "queue depth"
	TimelineDropsLabel = "drops"
)

package harness

import (
	"fmt"
	"time"

	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// The scale-* experiment family exercises the fabric topology layer
// (internal/topology, DESIGN.md §8) beyond the paper's two-ToR
// deployment: rack-count sweeps, cross-rack traffic fractions, and
// skewed per-rack capacity on the calibrated workload. Every
// experiment is deterministic in Options.Seed, seeds are paired across
// schemes so the delta isolates the fabric knob, and the family is
// covered by TestParallelDeterminism and the golden pin like every
// other experiment.

// registerScale registers the scale experiment family. Called last
// from the package init (after registerChaos), so the scale
// experiments append to the paper-order registry — and to the golden
// file — after everything that existed before them.
func registerScale() {
	registerScaleRacks()
	registerScaleCrossRack()
	registerScaleSkew()
	// scale-racks-xl is NOT registered here: it was added after the
	// cong-* family shipped, and the golden file appends rows in
	// registration order, so the package init registers it last.
}

// requireSimScale is requireSim with the scale family's reason.
func requireSimScale(id string, opts Options) error {
	return requireSim(id, opts, "multi-rack fabric topologies are")
}

// scaleDist is the family's shared workload: the fig7a shape.
func scaleDist() workload.Dist {
	return workload.WithJitter(workload.Exp(25), highVariability)
}

// fabricScenario builds a base scenario over an explicit fabric.
func fabricScenario(racks ...topology.Rack) *scenario.Scenario {
	return scenario.New(
		scenario.WithRacks(racks...),
		scenario.WithWorkload(scaleDist()),
	)
}

// ---------------------------------------------------------------------
// scale-racks — rack-count sweep at fixed per-rack shape

func registerScaleRacks() {
	register(&Experiment{
		ID:    "scale-racks",
		Title: "Fabric sweep: p99 vs rack count at fixed per-rack shape",
		Paper: "extension (topology layer, §3.7 generalized)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimScale("scale-racks", opts); err != nil {
				return Report{}, err
			}
			rackCounts := []int{1, 2, 4, 8}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for ni, n := range rackCounts {
					// Clients share rack 0 with its servers; every added
					// rack grows capacity and pushes more traffic across
					// the spine. Offered load tracks capacity at a fixed
					// fraction so the per-server operating point is
					// constant across rack counts.
					racks := make([]topology.Rack, n)
					for r := range racks {
						racks[r] = topology.HomRack(3, 8, 0)
					}
					base := fabricScenario(racks...)
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.45*capacityOf(base)),
						windowOf(opts),
						// Seeds are paired per rack count: both schemes see
						// the same randomness, so the delta isolates the
						// scheme's behaviour on that fabric.
						scenario.WithSeed(opts.Seed+uint64(ni)),
					)
					plan.point(sid, fmt.Sprintf("%s on %d racks", scheme, n), sc,
						func(res scenario.Result) Point {
							return Point{X: float64(n), Y: float64(res.Latency.P99) / 1e3}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "scale-racks", Title: "p99 vs rack count (3x8 servers per rack, 45% load, clients on rack 0)",
				XLabel: "Racks", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Each rack adds 3 servers x 8 threads behind its own ToR; offered load",
					"scales with capacity, so growth in p99 is pure fabric cost (spine hops",
					"plus cross-rack state staleness), not queueing. NetClone processing",
					"stays confined to the clients' ToR (switch-ID ownership, §3.7).",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// scale-racks-xl — datacenter-scale rack sweep

func registerScaleXL() {
	register(&Experiment{
		ID:    "scale-racks-xl",
		Title: "Fabric sweep XL: p99 at 16-64 racks and up to 1e5 clients",
		Paper: "extension (topology layer, cf. scale-racks)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimScale("scale-racks-xl", opts); err != nil {
				return Report{}, err
			}
			// The scale-racks shape pushed to datacenter size: 64 racks is
			// 192 servers / 1536 worker threads, and the client population
			// grows with the fabric (1600 machines per rack — 102,400
			// open-loop clients at 64 racks) so the per-client rate stays
			// constant. Load sits at 30% of
			// capacity to keep the event count CI-feasible; the sweep is
			// about fabric and engine scale, not queueing.
			rackCounts := []int{16, 32, 64}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			plan := &Plan{}
			// Reduce closures run serially after the batch completes;
			// rollupErr captures the first per-rack rollup that does not
			// sum to the cluster totals.
			var rollupErr error
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for ni, n := range rackCounts {
					n := n
					racks := make([]topology.Rack, n)
					for r := range racks {
						racks[r] = topology.HomRack(3, 8, 0)
					}
					base := fabricScenario(racks...).With(
						scenario.WithClients(n * 1600),
					)
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.3*capacityOf(base)),
						windowOf(opts),
						scenario.WithSeed(opts.Seed+uint64(ni)),
					)
					plan.point(sid, fmt.Sprintf("%s on %d racks", scheme, n), sc,
						func(res scenario.Result) Point {
							var drops int64
							for _, rs := range res.Racks {
								drops += rs.CloneDropsAtServer
							}
							if rollupErr == nil &&
								(len(res.Racks) != n || drops != res.CloneDropsAtServer) {
								rollupErr = fmt.Errorf(
									"scale-racks-xl: %d-rack rollup inconsistent: %d rack entries, %d rack-summed clone drops vs %d total",
									n, len(res.Racks), drops, res.CloneDropsAtServer)
							}
							return Point{X: float64(n), Y: float64(res.Latency.P99) / 1e3}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			if rollupErr != nil {
				return Report{}, rollupErr
			}
			return Report{
				ID: "scale-racks-xl", Title: "p99 vs rack count (3x8 servers and 1600 clients per rack, 30% load)",
				XLabel: "Racks", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"The datacenter-scale companion to scale-racks: 16-64 racks with a",
					"client population growing to 1e5 machines; per-rack rollups are",
					"verified to sum to the cluster totals.",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// scale-xrack — cross-rack traffic fraction

func registerScaleCrossRack() {
	register(&Experiment{
		ID:    "scale-xrack",
		Title: "Cross-rack traffic: p99 vs fraction of servers behind the spine",
		Paper: "extension (topology layer, cf. ext-multirack)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimScale("scale-xrack", opts); err != nil {
				return Report{}, err
			}
			// 6 servers total; k stay on the clients' rack, the rest move
			// behind a 2 us spine port. k = 6 is the pure single-rack
			// cluster, k = 0 the legacy two-ToR shape — the points in
			// between were inexpressible before the topology layer.
			locals := []int{6, 4, 2, 0}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for ki, k := range locals {
					racks := []topology.Rack{topology.HomRack(k, synthThreads, 0)}
					if k < 6 {
						racks = append(racks, topology.HomRack(6-k, synthThreads, 2*time.Microsecond))
					}
					base := fabricScenario(racks...)
					frac := float64(6-k) / 6
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.45*capacityOf(base)),
						windowOf(opts),
						scenario.WithSeed(opts.Seed+uint64(ki)),
					)
					plan.point(sid, fmt.Sprintf("%s at %.0f%% remote", scheme, frac*100), sc,
						func(res scenario.Result) Point {
							return Point{X: frac * 100, Y: float64(res.Latency.P99) / 1e3}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "scale-xrack", Title: "p99 vs cross-rack server fraction (6x16 servers, 45% load, 2us uplink)",
				XLabel: "Servers behind the spine (%)", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Requests route uniformly over server pairs, so the remote-server",
					"fraction is the cross-rack traffic fraction. Remote responses also",
					"age the switch's tracked state by the spine RTT, which is where",
					"cloning accuracy erodes as the fraction grows.",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// scale-skew — skewed per-rack capacity

func registerScaleSkew() {
	register(&Experiment{
		ID:    "scale-skew",
		Title: "Skewed racks: p99 vs per-rack capacity skew",
		Paper: "extension (topology layer, cf. Fig 10 heterogeneity)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if err := requireSimScale("scale-skew", opts); err != nil {
				return Report{}, err
			}
			// Three racks, 96 worker threads total, with per-rack thread
			// counts skewed as (16+d, 16, 16-d): uniform routing keeps
			// sending the weak rack its third of the traffic, so queueing
			// concentrates there (the weak servers run at 62..80%
			// utilization across the grid — tail territory, not a flat
			// saturation wall). The far rack also sits behind a slower
			// spine port — per-link latency heterogeneity on top of
			// capacity heterogeneity.
			deltas := []int{0, 2, 4, 6}
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone, simcluster.NetCloneRackSched}
			plan := &Plan{}
			for _, scheme := range schemes {
				sid := plan.series(scheme.String())
				for di, d := range deltas {
					base := fabricScenario(
						topology.Rack{Servers: []int{16 + d, 16 + d}},
						topology.Rack{Servers: []int{16, 16}, Uplink: time.Microsecond},
						topology.Rack{Servers: []int{16 - d, 16 - d}, Uplink: 3 * time.Microsecond},
					)
					sc := base.With(
						scenario.WithScheme(scheme),
						scenario.WithOfferedLoad(0.5*capacityOf(base)),
						windowOf(opts),
						scenario.WithSeed(opts.Seed+uint64(di)),
					)
					plan.point(sid, fmt.Sprintf("%s at skew %d", scheme, d), sc,
						func(res scenario.Result) Point {
							return Point{X: float64(d), Y: float64(res.Latency.P99) / 1e3}
						})
				}
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "scale-skew", Title: "p99 vs per-rack thread skew (3 racks, 96 threads total, 50% load)",
				XLabel: "Thread skew d (rack threads 16+d / 16 / 16-d per server)", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Total capacity is constant; only its distribution across racks (and",
					"each rack's spine latency) changes. Idle-aware cloning absorbs the",
					"hotspot that uniform routing creates on the weak, far rack; RackSched's",
					"JSQ fallback additionally steers non-cloned requests off it.",
				},
			}, nil
		},
	})
}

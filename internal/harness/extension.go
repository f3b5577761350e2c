package harness

import (
	"fmt"

	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// Extension experiments: paper mechanisms that were described but not
// evaluated on the testbed (§3.7), exercised here end-to-end.

func init() {
	registerExtMultiRack()
	registerExtLoss()
	// The chaos, scale, and congestion families register here — this
	// init runs after experiments.go's (file order), so chaos-*, then
	// scale-*, then cong-* append after every paper artifact, ablation,
	// and extension, keeping the golden file append-only.
	registerChaos()
	registerScale()
	registerCongestion()
	// scale-racks-xl arrived with the parallel-in-time core, after the
	// cong-* family shipped, so it registers — and its golden rows
	// append — after everything before it.
	registerScaleXL()
	// chaos-2rack arrived with the batched-syscall emu backend, after
	// scale-racks-xl, so it registers — and its golden rows append —
	// dead last. It is the one experiment that runs on both backends.
	registerChaosTwoRack()
}

// ext-multirack: the §3.7 multi-rack deployment — an empty client rack
// in front of one rack holding every server, default uplinks (2 us one
// way). The client-side ToR performs all NetClone processing; the
// server-side ToR passes stamped packets through. Latency shifts by the
// aggregation RTT; the cloning win and throughput envelope are
// preserved.
func registerExtMultiRack() {
	register(&Experiment{
		ID:    "ext-multirack",
		Title: "Extension: multi-rack deployment",
		Paper: "§3.7 (described, not evaluated)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			workers := homWorkers(defaultServers, synthThreads)
			base := synthetic(dist, workers)
			agg := scenario.WithRacks(topology.Rack{}, topology.Rack{Servers: workers})
			series, err := pairedSweepPlan(base, []seriesSpec{
				{Label: "Baseline multi-rack", Opts: []scenario.Option{
					scenario.WithScheme(simcluster.Baseline), agg,
				}},
				{Label: "NetClone single-rack", Opts: []scenario.Option{
					scenario.WithScheme(simcluster.NetClone),
				}},
				{Label: "NetClone multi-rack", Opts: []scenario.Option{
					scenario.WithScheme(simcluster.NetClone), agg,
				}},
			}, capacityOf(base), opts).run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "ext-multirack", Title: "Multi-rack deployment (client ToR owns NetClone processing)",
				XLabel: "Throughput (MRPS)", YLabel: "99% latency (us)",
				Series: series,
				Notes: []string{
					"Server-side ToR runs the same program but passes stamped packets",
					"through (switch-ID ownership, §3.7); aggregation adds a fixed 2x2us.",
				},
			}, nil
		},
	})
}

// ext-loss: the §3.6 dropped-messages analysis. Response filtering keeps
// exactly-once delivery semantics and the filter slots stay reusable via
// overwrite, even with per-link loss.
func registerExtLoss() {
	register(&Experiment{
		ID:    "ext-loss",
		Title: "Extension: behavior under packet loss",
		Paper: "§3.6 (described, not evaluated)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			base := synthetic(dist, homWorkers(defaultServers, synthThreads))
			cap := capacityOf(base)
			losses := []float64{0, 0.001, 0.01, 0.05}
			specs := make([]RunSpec, len(losses))
			for i, loss := range losses {
				specs[i] = RunSpec{
					Label: fmtPct(loss) + " loss",
					Scenario: base.With(
						scenario.WithScheme(simcluster.NetClone),
						scenario.WithLoss(loss),
						scenario.WithOfferedLoad(0.45*cap),
						windowOf(opts),
						scenario.WithSeed(opts.Seed),
						// Small enough that lingering fingerprints recycle.
						scenario.WithFilter(2, 1<<10),
					),
				}
			}
			results, err := runSpecs(specs, opts)
			if err != nil {
				return Report{}, err
			}
			table := [][]string{{"Loss/link", "Completed %", "p99 (us)", "Filter overwrites", "Redundant at client"}}
			for i, res := range results {
				table = append(table, []string{
					fmtPct(losses[i]),
					fmtPct(float64(res.Completed) / float64(res.Generated)),
					fmtF(float64(res.Latency.P99) / 1e3),
					fmtI(res.Switch.FilterOverwrites),
					fmtI(res.RedundantAtClient),
				})
			}
			return Report{
				ID: "ext-loss", Title: "NetClone under per-link packet loss (45% load)",
				Table: table,
				Notes: []string{
					"Lost slower responses strand fingerprints; overwrite-on-insert",
					"recycles those slots, so completions track the loss rate and no",
					"slot is stuck permanently (§3.6).",
				},
			}, nil
		},
	})
}

func fmtPct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }
func fmtF(f float64) string   { return fmt.Sprintf("%.1f", f) }
func fmtI(i int64) string     { return fmt.Sprintf("%d", i) }

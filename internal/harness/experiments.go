package harness

import (
	"fmt"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/faults"
	"netclone/internal/kvstore"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/workload"
)

// Paper defaults (§5.1): 6 worker servers, 2 clients; synthetic
// workloads run 16 worker threads per server, the RackSched experiments
// 15 (+1 dispatcher), the key-value experiments 8.
const (
	defaultServers   = 6
	synthThreads     = 16
	rackschedThreads = 15
	rackschedSlowThr = 8
	kvThreads        = 8
	highVariability  = 0.01  // jitter p for the default workloads
	lowVariability   = 0.001 // Fig 14
)

// synthetic builds the standard synthetic-workload base scenario.
func synthetic(dist workload.Dist, workers []int) *scenario.Scenario {
	return scenario.New(
		scenario.WithTopology(workers...),
		scenario.WithWorkload(dist),
	)
}

// capacityOf estimates the saturation throughput of a base scenario
// from its worker pool and mean service time.
func capacityOf(sc *scenario.Scenario) float64 {
	cfg := sc.Config()
	mean := 0.0
	if cfg.Mix != nil {
		mean = cfg.Cost.MixMean(cfg.Mix)
	} else {
		mean = cfg.Service.Mean()
	}
	return capacityRPS(cfg.Workers, mean)
}

func init() {
	registerTable1()
	registerTable2()
	registerSweepFigs(fig7Figs())
	registerSweepFigs(fig8Figs())
	registerFig9()
	registerSweepFigs(fig10Figs())
	registerSweepFigs(fig1112Figs())
	registerFig13()
	registerSweepFigs(fig14Figs())
	registerSweepFigs(fig15Figs())
	registerFig16()
	registerAblations()
}

// ---------------------------------------------------------------------
// Standard sweep figures
//
// Most of the paper's figures share one shape: a latency-vs-throughput
// sweep of a few schemes over one base cluster. sweepFig declares that
// shape, so Figs 7, 8, 10, 11/12, and 14 — formerly five near-identical
// registration loops — are rows of one table and a single registration
// path.

// sweepFig declares one standard latency-vs-throughput figure.
type sweepFig struct {
	id      string
	title   string // Experiment.Title
	report  string // Report.Title
	paper   string
	base    *scenario.Scenario // topology + workload; schemes applied per series
	notes   []string
	schemes []simcluster.Scheme
}

// Scheme sets compared by the standard figures (§5.1.3).
var (
	vsCClone    = []simcluster.Scheme{simcluster.Baseline, simcluster.CClone, simcluster.NetClone}
	vsExisting  = []simcluster.Scheme{simcluster.CClone, simcluster.LAEDGE, simcluster.NetClone}
	vsRackSched = []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone, simcluster.NetCloneRackSched}
)

// fig7Figs declares Fig 7 — synthetic workloads, Baseline vs C-Clone vs
// NetClone.
func fig7Figs() []sweepFig {
	var figs []sweepFig
	for _, v := range []struct {
		id   string
		dist workload.Dist
	}{
		{"fig7a", workload.Exp(25)},
		{"fig7b", workload.Bimodal9010(25, 250)},
		{"fig7c", workload.Exp(50)},
		{"fig7d", workload.Bimodal9010(50, 500)},
	} {
		dist := workload.WithJitter(v.dist, highVariability)
		figs = append(figs, sweepFig{
			id:      v.id,
			title:   "Synthetic workload " + v.dist.Name(),
			report:  "99% latency vs throughput, " + dist.Name(),
			paper:   "Fig 7 (" + v.id[len(v.id)-1:] + ")",
			base:    synthetic(dist, homWorkers(defaultServers, synthThreads)),
			schemes: vsCClone,
		})
	}
	return figs
}

// fig8Figs declares Fig 8 — comparison with C-Clone and LÆDGE (5
// workers, one host is the coordinator).
func fig8Figs() []sweepFig {
	var figs []sweepFig
	for _, v := range []struct {
		id   string
		dist workload.Dist
	}{
		{"fig8a", workload.Exp(25)},
		{"fig8b", workload.Bimodal9010(25, 250)},
	} {
		dist := workload.WithJitter(v.dist, highVariability)
		figs = append(figs, sweepFig{
			id:      v.id,
			title:   "Scalability comparison, " + v.dist.Name(),
			report:  "Comparison with existing solutions, " + dist.Name(),
			paper:   "Fig 8",
			base:    synthetic(dist, homWorkers(5, synthThreads)),
			schemes: vsExisting,
			notes: []string{
				"5 worker servers: in the paper one machine is dedicated to the LAEDGE coordinator.",
			},
		})
	}
	return figs
}

// fig10Figs declares Fig 10 — performance with RackSched, homogeneous
// and heterogeneous.
func fig10Figs() []sweepFig {
	var figs []sweepFig
	for _, v := range []struct {
		id     string
		dist   workload.Dist
		het    bool
		suffix string
	}{
		{"fig10a", workload.Exp(25), false, "Exp-Homogeneous"},
		{"fig10b", workload.Exp(25), true, "Exp-Heterogeneous"},
		{"fig10c", workload.Bimodal9010(25, 250), false, "Bimodal-Homogeneous"},
		{"fig10d", workload.Bimodal9010(25, 250), true, "Bimodal-Heterogeneous"},
	} {
		dist := workload.WithJitter(v.dist, highVariability)
		workers := homWorkers(defaultServers, rackschedThreads)
		if v.het {
			workers = []int{rackschedThreads, rackschedThreads, rackschedThreads,
				rackschedSlowThr, rackschedSlowThr, rackschedSlowThr}
		}
		figs = append(figs, sweepFig{
			id:      v.id,
			title:   "RackSched integration, " + v.suffix,
			report:  "Performance with RackSched, " + v.suffix,
			paper:   "Fig 10",
			base:    synthetic(dist, workers),
			schemes: vsRackSched,
		})
	}
	return figs
}

// fig1112Figs declares Fig 11 / Fig 12 — Redis-like and Memcached-like
// application workloads. A KVMix and its Zipf keys are immutable after
// construction, so sharing them across concurrently running points is
// safe; the four figures share one 1M-key alias table.
func fig1112Figs() []sweepFig {
	keys := workload.NewZipf(kvstore.DefaultObjects, 0.99)
	var figs []sweepFig
	for _, v := range []struct {
		id    string
		model kvstore.CostModel
		pGet  float64
		pScan float64
		label string
	}{
		{"fig11a", kvstore.Redis(), 0.99, 0.01, "Redis 99%-GET,1%-SCAN"},
		{"fig11b", kvstore.Redis(), 0.90, 0.10, "Redis 90%-GET,10%-SCAN"},
		{"fig12a", kvstore.Memcached(), 0.99, 0.01, "Memcached 99%-GET,1%-SCAN"},
		{"fig12b", kvstore.Memcached(), 0.90, 0.10, "Memcached 90%-GET,10%-SCAN"},
	} {
		figs = append(figs, sweepFig{
			id:     v.id,
			title:  v.label,
			report: v.label + " (Zipf-0.99, 1M objects)",
			paper:  "Fig 11/12",
			base: scenario.New(
				scenario.WithTopology(homWorkers(defaultServers, kvThreads)...),
				scenario.WithKVWorkload(&workload.KVMix{PGet: v.pGet, PScan: v.pScan, Keys: keys}, v.model),
			),
			schemes: vsCClone,
		})
	}
	return figs
}

// fig14Figs declares Fig 14 — low service-time variability (p = 0.001).
func fig14Figs() []sweepFig {
	var figs []sweepFig
	for _, v := range []struct {
		id   string
		dist workload.Dist
	}{
		{"fig14a", workload.Exp(25)},
		{"fig14b", workload.Bimodal9010(25, 250)},
	} {
		dist := workload.WithJitter(v.dist, lowVariability)
		figs = append(figs, sweepFig{
			id:      v.id,
			title:   "Low variability, " + v.dist.Name(),
			report:  "Low service-time variability (p=0.001), " + v.dist.Name(),
			paper:   "Fig 14",
			base:    synthetic(dist, homWorkers(defaultServers, synthThreads)),
			schemes: vsCClone,
		})
	}
	return figs
}

// fig15Figs declares Fig 15 — impact of redundant response filtering.
func fig15Figs() []sweepFig {
	dist := workload.WithJitter(workload.Exp(25), highVariability)
	return []sweepFig{{
		id:     "fig15",
		title:  "Impact of redundant response filtering",
		report: "Impact of redundant response filtering, Exp(25)",
		paper:  "Fig 15",
		base:   synthetic(dist, homWorkers(defaultServers, synthThreads)),
		schemes: []simcluster.Scheme{
			simcluster.Baseline, simcluster.NetCloneNoFilter, simcluster.NetClone,
		},
	}}
}

// registerSweepFigs registers one experiment per declared figure.
func registerSweepFigs(figs []sweepFig) {
	for _, f := range figs {
		registerSweepFig(f)
	}
}

// registerSweepFig registers the experiment for one declared figure.
func registerSweepFig(f sweepFig) {
	register(&Experiment{
		ID:    f.id,
		Title: f.title,
		Paper: f.paper,
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			series, err := sweepPlan(f.base, schemeSeries(f.schemes), capacityOf(f.base), opts).run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: f.id, Title: f.report,
				XLabel: "Throughput (MRPS)", YLabel: "99% latency (us)",
				Series: series,
				Notes:  f.notes,
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// Table 1 — qualitative comparison

func registerTable1() {
	register(&Experiment{
		ID:    "table1",
		Title: "Comparison to existing works",
		Paper: "Table 1",
		Run: func(opts Options) (Report, error) {
			return Report{
				ID:    "table1",
				Title: "Comparison to existing works (Table 1)",
				Table: [][]string{
					{"Property", "C-Clone", "LAEDGE", "NetClone"},
					{"Cloning point", "Client", "Coordinator", "Switch"},
					{"Dynamic cloning", "no", "yes", "yes"},
					{"Scalability", "yes", "no", "yes"},
					{"High throughput", "no", "no", "yes"},
					{"Low latency overhead", "yes", "no", "yes"},
				},
				Notes: []string{
					"Measured evidence: fig8a/fig8b (throughput and scalability),",
					"fig7a-d (dynamic cloning vs C-Clone's static cloning),",
					"fig15 (client overhead without response filtering).",
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// Table 2 — §4.1 resource usage

func registerTable2() {
	register(&Experiment{
		ID:    "table2",
		Title: "Switch resource usage",
		Paper: "§4.1 prototype resource report",
		Run: func(opts Options) (Report, error) {
			u := dataplane.ComputeUsage(dataplane.DefaultConfig(), 50_000)
			return Report{
				ID:    "table2",
				Title: "Switch resource usage (§4.1, 2 filter tables x 2^17 slots)",
				Table: [][]string{
					{"Resource", "Model", "Paper"},
					{"Match-action stages", fmt.Sprintf("%d", u.Stages), "7"},
					{"Filter slots", fmt.Sprintf("2^18 (%d)", u.FilterSlotsTotal), "2^18"},
					{"Filter memory", fmt.Sprintf("%.2f MB", float64(u.FilterBytes)/1e6), "~1.05 MB"},
					{"Switch SRAM share", fmt.Sprintf("%.2f%%", u.MemFraction*100), "4.77%"},
					{"Supported throughput @50us", fmt.Sprintf("%.2f BRPS", u.SupportedRPS/1e9), "~5.24 BRPS"},
				},
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// Fig 9 — impact of the number of servers. Three cluster sizes share one
// plan, so all sizes' points run in the same parallel batch.

func registerFig9() {
	register(&Experiment{
		ID:    "fig9",
		Title: "Impact of the number of servers",
		Paper: "Fig 9",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			plan := &Plan{}
			for _, n := range []int{2, 4, 6} {
				base := synthetic(dist, homWorkers(n, synthThreads))
				series := schemeSeries([]simcluster.Scheme{simcluster.Baseline, simcluster.NetClone})
				for i := range series {
					series[i].Label = fmt.Sprintf("%s(%d)", series[i].Label, n)
				}
				plan.append(sweepPlan(base, series, capacityOf(base), opts))
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "fig9", Title: "Impact of the number of servers, Exp(25)",
				XLabel: "Throughput (MRPS)", YLabel: "99% latency (us)",
				Series: series,
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// Fig 13 — confidence of state signals

func registerFig13() {
	register(&Experiment{
		ID:    "fig13a",
		Title: "Portion of empty queues vs offered load",
		Paper: "Fig 13(a)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			if name := opts.backend().Name(); name != "sim" {
				return Report{}, fmt.Errorf("fig13a: the empty-queue state signal is measured only by the sim backend, not %q (%w); drop Options.Backend for this experiment", name, scenario.ErrSimOnly)
			}
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			base := synthetic(dist, homWorkers(defaultServers, synthThreads))
			cap := capacityOf(base)
			plan := &Plan{}
			sid := plan.series("NetClone")
			for i := 1; i <= 10; i++ {
				frac := float64(i) / 10
				sc := base.With(
					scenario.WithScheme(simcluster.NetClone),
					scenario.WithOfferedLoad(frac*cap),
					windowOf(opts),
					scenario.WithSeed(opts.Seed+uint64(i)),
				)
				plan.point(sid, fmt.Sprintf("NetClone at %.0f%%", frac*100), sc,
					func(res scenario.Result) Point {
						return Point{X: frac * 100, Y: res.EmptyQueueFrac * 100}
					})
			}
			series, err := plan.run(opts)
			if err != nil {
				return Report{}, err
			}
			return Report{
				ID: "fig13a", Title: "Confidence of the empty queue for state signaling",
				XLabel: "Offered load (%)", YLabel: "Portion of zeros (%)",
				Series: series,
			}, nil
		},
	})

	register(&Experiment{
		ID:    "fig13b",
		Title: "Latency at 90% load over repeated runs",
		Paper: "Fig 13(b)",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			base := synthetic(dist, homWorkers(defaultServers, synthThreads))
			cap := capacityOf(base)
			// One batch holds both schemes' repeats, so all runs share
			// the worker pool and progress totals span the experiment.
			schemes := []simcluster.Scheme{simcluster.Baseline, simcluster.NetClone}
			var specs []RunSpec
			for _, scheme := range schemes {
				sc := base.With(
					scenario.WithScheme(scheme),
					scenario.WithOfferedLoad(0.9*cap),
					windowOf(opts),
				)
				specs = append(specs, repeatSpecs(sc, opts)...)
			}
			results, err := runSpecs(specs, opts)
			if err != nil {
				return Report{}, err
			}
			var series []Series
			for i, scheme := range schemes {
				mean, std := p99MeanStd(results[i*opts.Repeats : (i+1)*opts.Repeats])
				series = append(series, Series{
					Label:  scheme.String(),
					Points: []Point{{X: 90, Y: mean, Err: std}},
				})
			}
			return Report{
				ID: "fig13b", Title: fmt.Sprintf("p99 at 90%% load, mean +/- std over %d runs", opts.Repeats),
				XLabel: "Offered load (%)", YLabel: "99% latency (us)",
				Series: series,
			}, nil
		},
	})
}

// ---------------------------------------------------------------------
// Fig 16 — performance under switch failures

func registerFig16() {
	register(&Experiment{
		ID:    "fig16",
		Title: "Performance under switch failures",
		Paper: "Fig 16",
		Run: func(opts Options) (Report, error) {
			opts = opts.withDefaults()
			dist := workload.WithJitter(workload.Exp(25), highVariability)
			workers := homWorkers(defaultServers, synthThreads)
			cap := capacityRPS(workers, dist.Mean())
			// Time scale derives from the per-point duration so Quick()
			// options shrink the whole timeline proportionally. Defaults:
			// 12s run, failure at 5s, recovery at 7s, 1s bins — the
			// paper's schedule (its x-axis runs to 25s; recovery behaviour
			// is identical from 12s on).
			unit := opts.DurationNS
			sc := scenario.New(
				scenario.WithScheme(simcluster.NetClone),
				scenario.WithTopology(workers...),
				scenario.WithWorkload(dist),
				scenario.WithOfferedLoad(0.27*cap), // ~0.9 MRPS at full scale, as in the paper
				scenario.WithWindow(0, time.Duration(60*unit)),
				scenario.WithSeed(opts.Seed),
				scenario.WithFaultInjections(faults.SwitchOutage(time.Duration(25*unit), time.Duration(35*unit))),
				scenario.WithTimeline(time.Duration(5*unit)),
			)
			results, err := runSpecs([]RunSpec{{Label: "fig16", Scenario: sc}}, opts)
			if err != nil {
				return Report{}, err
			}
			res := results[0]
			if res.Timeline == nil {
				return Report{}, fmt.Errorf("fig16: backend %q recorded no timeline; run on the Sim backend", opts.backend().Name())
			}
			binNS := sc.Config().TimelineBinNS
			s := Series{Label: "NetClone"}
			for i, r := range res.Timeline.Rate() {
				t := float64(i) * float64(binNS) / 1e9
				s.Points = append(s.Points, Point{X: t, Y: r / 1e6})
			}
			return Report{
				ID: "fig16", Title: "Throughput under a switch stop/reactivate cycle",
				Kind:   ReportTimeline,
				XLabel: "Time (s)", YLabel: "Throughput (MRPS)",
				Series: []Series{s},
				Notes: []string{
					"Switch stopped at bin 5 and reactivated at bin 7 (scaled by options).",
					"The paper observes ~10s of downtime dominated by switch reboot time;",
					"the simulated switch recovers instantly, so the dip spans exactly the",
					"configured failure window. Soft state (sequencer, states, filters) is",
					"lost and rebuilt from live traffic, with no permanent misbehavior (§3.6).",
				},
			}, nil
		},
	})
}

// Command netclone-bench regenerates the paper's evaluation: every table
// and figure has a named experiment (fig7a..fig16, table1, table2, plus
// ablations). Results print as aligned text, CSV, JSON, or ASCII plots.
//
// Usage:
//
//	netclone-bench -list
//	netclone-bench -run fig7a
//	netclone-bench -run all -quick
//	netclone-bench -run 'scale-*' -quick
//	netclone-bench -run 'chaos-*' -parallel 8 -timeline recovery.csv
//	netclone-bench -run fig11a -format csv -o fig11a.csv
//	netclone-bench -run fig7a -format json
//	netclone-bench -run all -parallel 8
//	netclone-bench -run fig7a -backend emu -quick -loads 0.1
//	netclone-bench -run fig7a -quick -cpuprofile cpu.out -memprofile mem.out
//	netclone-bench -run cong-incast -quick -trace incast.json -trace-rate 1
//
// -run accepts a single ID, the keyword "all", or a glob pattern
// ("chaos-*", "scale-*", "fig1?a") matched against the experiment
// inventory in paper order. -timeline FILE additionally dumps every
// report that declares itself time-binned (Report.Kind ==
// ReportTimeline: fig16, the chaos-* recovery curves, cong-timeline)
// as one CSV of recovery curves:
// experiment,series,time_s,throughput_mrps,queue_depth,drops.
// The queue_depth and drops columns come from the congestion aux
// series some timelines carry (TimelineDepthLabel/TimelineDropsLabel);
// they are folded into the throughput rows bin by bin and left empty
// for uncongested timelines.
//
// Each experiment declares its grid of scenario points, which execute on
// a bounded worker pool: -parallel bounds the pool size (default 0 = one
// worker per CPU, 1 = sequential). On the default sim backend results
// are byte-identical at every parallelism level. -backend emu replays
// the same scenarios over real UDP sockets (rate-capped; counters are
// comparable, latencies include kernel noise).
//
// -trace FILE arms the simulator's flight recorder on every point and
// writes the busiest point's capture as Chrome trace-event JSON —
// loadable at ui.perfetto.dev — or as flat CSV when FILE ends in .csv.
// -trace-rate N records every Nth request per client (default 64 when
// -trace is set; 1 records everything). Recording is observational:
// reports are byte-identical with tracing on or off.
//
// -cpuprofile/-memprofile write pprof profiles of the run. Performance
// is measured by the benchmark of record (benchmark/README.md), not
// here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"netclone"
	"netclone/internal/plot"
)

// renderPlot draws figure reports as ASCII charts (falls back to text
// for table reports).
func renderPlot(w io.Writer, report netclone.Report) error {
	if len(report.Series) == 0 {
		return netclone.RenderText(w, report)
	}
	var series []plot.Series
	for _, s := range report.Series {
		ps := plot.Series{Label: s.Label}
		for _, p := range s.Points {
			ps.X = append(ps.X, p.X)
			ps.Y = append(ps.Y, p.Y)
		}
		series = append(series, ps)
	}
	logY := strings.Contains(report.YLabel, "latency")
	return plot.Render(w, series, plot.Options{
		Title:  report.ID + ": " + report.Title,
		XLabel: report.XLabel,
		YLabel: report.YLabel,
		LogY:   logY,
	})
}

func main() {
	var (
		runID    = flag.String("run", "", "experiment ID to run, 'all', or a glob pattern like 'chaos-*'")
		timeline = flag.String("timeline", "", "also dump timeline-shaped reports (recovery curves) as CSV to this path")
		list     = flag.Bool("list", false, "list available experiments")
		format   = flag.String("format", "text", "output format: text, csv, json, or plot")
		backend  = flag.String("backend", "sim", "execution backend: sim (deterministic simulator) or emu (real-UDP loopback emulation)")
		emuRate  = flag.Float64("emu-rate", 0, "emu backend: cap on the open-loop rate in req/s (0 = default 4000)")
		out      = flag.String("o", "", "output file (default stdout)")
		quick    = flag.Bool("quick", false, "reduced fidelity (seconds instead of minutes)")
		duration = flag.Duration("duration", 0, "per-point measurement window (e.g. 200ms)")
		warmup   = flag.Duration("warmup", 0, "per-point warmup (e.g. 50ms)")
		seed     = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		loads    = flag.String("loads", "", "comma-separated load fractions, e.g. 0.1,0.5,0.9")
		repeats  = flag.Int("repeats", 0, "runs per point for averaged experiments")
		parallel = flag.Int("parallel", 0, "max concurrent simulation points (0 = one per CPU, 1 = sequential)")
		progress = flag.Bool("progress", false, "print per-point progress to stderr")

		traceFile = flag.String("trace", "", "write the busiest point's flight-recorder capture to this path as Chrome trace-event JSON (ui.perfetto.dev), or CSV when the path ends in .csv")
		traceRate = flag.Int("trace-rate", 0, "flight-recorder sampling: record every Nth request per client (0 = off, or 64 when -trace is set; sim backend only)")
		traceCap  = flag.Int("trace-cap", 0, "flight-recorder ring capacity (0 = default 65536; oldest records are overwritten)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	flag.Parse()

	if *list {
		fmt.Println("Available experiments (netclone-bench -run <id>):")
		for _, e := range netclone.Experiments() {
			fmt.Printf("  %-16s %-45s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	if *runID == "" {
		flag.Usage()
		os.Exit(2)
	}

	switch *format {
	case "text", "csv", "json", "plot":
	default:
		fatal(fmt.Errorf("unknown format %q (want text, csv, json, or plot)", *format))
	}

	opts := netclone.DefaultOptions()
	if *quick {
		opts = netclone.QuickOptions()
	}
	if *duration > 0 {
		opts.DurationNS = duration.Nanoseconds()
	}
	if *warmup > 0 {
		opts.WarmupNS = warmup.Nanoseconds()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *repeats > 0 {
		opts.Repeats = *repeats
	}
	opts.Parallelism = *parallel
	switch *backend {
	case "sim", "":
		// Options.Backend nil selects the simulator.
		if *emuRate > 0 {
			fatal(fmt.Errorf("-emu-rate only applies with -backend emu"))
		}
	case "emu":
		var emuOpts []netclone.EmuOption
		if *emuRate > 0 {
			emuOpts = append(emuOpts, netclone.EmuMaxRate(*emuRate))
		}
		opts.Backend = netclone.Emu(emuOpts...)
	default:
		fatal(fmt.Errorf("unknown backend %q (want sim or emu)", *backend))
	}
	if *loads != "" {
		fracs, err := parseLoads(*loads)
		if err != nil {
			fatal(err)
		}
		opts.LoadFracs = fracs
	}
	if *traceRate < 0 {
		fatal(fmt.Errorf("-trace-rate %d is negative (0 = off, 1 = every request)", *traceRate))
	}
	if *traceFile != "" && *traceRate == 0 {
		*traceRate = 64
	}
	// The emu backend runs on wall-clock sockets and the flight recorder
	// instruments the simulator's engine, so the request is dropped with
	// one logged reason instead of failing the run or being ignored
	// silently.
	if *backend == "emu" && *traceRate > 0 {
		fmt.Fprintf(os.Stderr, "netclone-bench: -trace/-trace-rate ignored on the emu backend: the flight recorder instruments the simulator's engine, and emu has no recorder\n")
		*traceRate = 0
		*traceFile = ""
	}
	opts.TraceRate = *traceRate
	opts.TraceCap = *traceCap

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	ids, err := expandRunIDs(*runID)
	if err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var curves []netclone.Report // timeline-shaped reports for -timeline
	var bestTrace *capturedTrace // busiest flight-recorder capture for -trace
	for _, id := range ids {
		if *progress {
			opts.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d points", id, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		obs := &runObserver{experiment: id}
		opts.Observe = obs.observe
		start := time.Now()
		report, err := netclone.RunExperiment(id, opts)
		if err != nil {
			// A whole-suite sweep on a reduced backend skips the
			// experiments that need simulator-only capabilities instead
			// of aborting with partial output.
			if *runID == "all" && errors.Is(err, netclone.ErrSimOnly) {
				fmt.Fprintf(os.Stderr, "netclone-bench: skipping %s on backend %q: %v\n", id, *backend, err)
				continue
			}
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *timeline != "" && report.Kind == netclone.ReportTimeline {
			curves = append(curves, report)
		}
		switch *format {
		case "csv":
			err = netclone.RenderCSV(w, report)
		case "json":
			err = netclone.RenderJSON(w, report)
		case "plot":
			err = renderPlot(w, report)
		case "text":
			err = netclone.RenderText(w, report)
			line := fmt.Sprintf("%s finished in %v", id, time.Since(start).Round(time.Millisecond))
			if s := obs.summary(); s != "" {
				line += " (" + s + ")"
			}
			fmt.Fprintln(os.Stderr, line)
		}
		if err != nil {
			fatal(err)
		}
		if t := obs.bestTrace(); t != nil && (bestTrace == nil || t.richer(bestTrace)) {
			bestTrace = t
		}
	}

	if *timeline != "" {
		if len(curves) == 0 {
			fmt.Fprintf(os.Stderr, "netclone-bench: -timeline: no timeline-shaped report among %v (fig16 and chaos-* produce them)\n", ids)
		} else if err := writeTimelineCSV(*timeline, curves); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "netclone-bench: wrote %d recovery curve(s) to %s\n", countSeries(curves), *timeline)
		}
	}

	if *traceFile != "" {
		if bestTrace == nil {
			fmt.Fprintf(os.Stderr, "netclone-bench: -trace: no flight-recorder data captured\n")
		} else if err := writeTraceFile(*traceFile, bestTrace.data); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "netclone-bench: wrote %d trace events (%s, %s) to %s\n",
				len(bestTrace.data.Events), bestTrace.experiment, bestTrace.label, *traceFile)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// expandRunIDs resolves the -run argument: a single ID passes through,
// "all" expands to the whole inventory, and a glob pattern ("chaos-*")
// selects the matching experiments in paper order.
func expandRunIDs(pattern string) ([]string, error) {
	if pattern == "all" {
		var ids []string
		for _, e := range netclone.Experiments() {
			ids = append(ids, e.ID)
		}
		return ids, nil
	}
	if !strings.ContainsAny(pattern, "*?[") {
		return []string{pattern}, nil
	}
	var ids []string
	for _, e := range netclone.Experiments() {
		ok, err := path.Match(pattern, e.ID)
		if err != nil {
			return nil, fmt.Errorf("bad -run pattern %q: %w", pattern, err)
		}
		if ok {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-run pattern %q matches no experiment (see -list)", pattern)
	}
	return ids, nil
}

// auxSeries returns true for the congestion aux series some timeline
// reports carry: folded into the queue_depth/drops columns rather than
// emitted as recovery-curve rows of their own.
func auxSeries(label string) bool {
	return label == netclone.TimelineDepthLabel || label == netclone.TimelineDropsLabel
}

// writeTimelineCSV dumps every timeline-shaped report as one flat CSV
// of recovery curves, one row per (experiment, series, bin). Congestion
// aux series fold into the queue_depth/drops columns bin by bin (the
// bins share the report's timeline grid); reports without them leave
// the columns empty.
func writeTimelineCSV(file string, curves []netclone.Report) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "experiment,series,time_s,throughput_mrps,queue_depth,drops"); err != nil {
		return err
	}
	for _, r := range curves {
		var depth, drops []netclone.ReportPoint
		for _, s := range r.Series {
			switch s.Label {
			case netclone.TimelineDepthLabel:
				depth = s.Points
			case netclone.TimelineDropsLabel:
				drops = s.Points
			}
		}
		cell := func(pts []netclone.ReportPoint, i int) string {
			if i >= len(pts) {
				return ""
			}
			return fmt.Sprintf("%v", pts[i].Y)
		}
		for _, s := range r.Series {
			if auxSeries(s.Label) {
				continue
			}
			for i, p := range s.Points {
				if _, err := fmt.Fprintf(f, "%s,%s,%v,%v,%s,%s\n",
					r.ID, s.Label, p.X, p.Y, cell(depth, i), cell(drops, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func countSeries(curves []netclone.Report) int {
	n := 0
	for _, r := range curves {
		for _, s := range r.Series {
			if !auxSeries(s.Label) {
				n++
			}
		}
	}
	return n
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load fraction %q: %w", part, err)
		}
		if f <= 0 {
			return nil, fmt.Errorf("load fraction %v must be positive", f)
		}
		out = append(out, f)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netclone-bench:", err)
	os.Exit(1)
}

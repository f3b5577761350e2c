package main

import (
	"fmt"
	"io"
)

// The regression ratchet (README § Benchmarking): compare diffs a fresh
// benchmark snapshot against the latest committed BENCH_<n>.json and
// turns the perf trajectory from a log into a gate. The hot-path probe
// is the enforced signal — it is sequential, single-configuration, and
// allocation-attributable — while per-experiment deltas are reported
// for context but only warn (their wall times fold in grid size and
// scheduling noise). scripts/bench.sh compare drives this end to end.

// maxEventsLoss is the enforced hot-path throughput tolerance: losing
// more than 5% events/sec against the baseline fails the gate.
const maxEventsLoss = 0.05

// allocSlack absorbs the sub-allocation noise in allocs/op. The probe
// meters process-wide Mallocs, so background runtime activity leaks
// fractional allocations into the per-op figure (committed snapshots
// show e.g. 206.13 for a 206-alloc run). Growth beyond half an
// allocation per op is real and fails the gate.
const allocSlack = 0.5

// expWarnLoss is the report-only tolerance for per-experiment
// events/sec deltas.
const expWarnLoss = 0.05

// minEmuSustainedRPS is the absolute floor on the emu loopback probe's
// batched sustained request rate: ten times the 4000 req/s the
// single-syscall emu backend operated at (the pre-batching EmuMaxRate
// default — the rate the per-packet path was capped to because it
// could not be trusted faster). Enforced only where the batch path is
// compiled in; the portable figure is the committed A/B baseline, not
// a gate.
const minEmuSustainedRPS = 40_000

// maxEmuRateLoss is the ratchet tolerance for the batched sustained
// rate. The probe's ladder quantizes its answer in 2x rungs (a healthy
// host settles on one rung or the next across runs), so the events/sec
// tolerance would flake on every rung boundary; instead the ratchet
// fails only when the candidate lands more than one full rung below
// the baseline (>55% loss — a 50% one-rung step plus achieved-rate
// wiggle). Finer regressions are the absolute floor's job.
const maxEmuRateLoss = 0.55

// compareReport is the outcome of diffing two snapshots. failures gate
// (non-zero exit); warnings never do. When the snapshots come from
// different hosts every would-be failure lands in warnings instead —
// a cross-host diff measures the hardware, not the code.
type compareReport struct {
	lines    []string
	warnings []string
	failures []string
}

func (r *compareReport) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *compareReport) warnf(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

// gatef records a gate violation: a failure on same-host diffs, a
// warning across hosts.
func (r *compareReport) gatef(crossHost bool, format string, args ...any) {
	if crossHost {
		r.warnf(format+" [cross-host: warning only]", args...)
	} else {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// compareBench diffs candidate cand against baseline base. Pure: all
// I/O stays with the callers, so tests feed doctored snapshots directly.
func compareBench(base, cand benchFile) compareReport {
	var r compareReport

	crossHost := !sameHost(base.Host, cand.Host)
	if crossHost {
		r.warnf("snapshots come from different hosts (baseline %s, candidate %s): regressions reported as warnings, not failures",
			hostString(base.Host), hostString(cand.Host))
	}

	switch {
	case base.HotPath == nil:
		r.warnf("baseline has no hot_path probe: throughput gate skipped")
	case cand.HotPath == nil:
		r.gatef(crossHost, "candidate has no hot_path probe (baseline does): throughput gate cannot run")
	default:
		b, c := base.HotPath, cand.HotPath
		d := delta(b.EventsPerSec, c.EventsPerSec)
		r.linef("hot_path events/sec: %.3gM -> %.3gM (%+.1f%%)",
			b.EventsPerSec/1e6, c.EventsPerSec/1e6, 100*d)
		if d < -maxEventsLoss {
			r.gatef(crossHost, "hot_path events/sec regressed %.1f%% (%.3gM -> %.3gM, tolerance %.0f%%)",
				-100*d, b.EventsPerSec/1e6, c.EventsPerSec/1e6, 100*maxEventsLoss)
		}
		r.linef("hot_path allocs/op:  %.1f -> %.1f", b.AllocsPerOp, c.AllocsPerOp)
		if c.AllocsPerOp > b.AllocsPerOp+allocSlack {
			r.gatef(crossHost, "hot_path allocs/op grew %.1f -> %.1f (any growth fails)",
				b.AllocsPerOp, c.AllocsPerOp)
		}
	}

	// Emu loopback probe: the ratchet on the batched path's sustained
	// request rate plus the absolute 10x-over-pre-batching floor. A
	// schema-3 baseline predates the probe, so the gate warn-skips; a
	// candidate without the batch path compiled in (non-Linux) skips
	// only the floor and ratchet, keeping the portable figure visible.
	switch {
	case base.EmuLoopback == nil:
		r.warnf("baseline has no emu_loopback probe (schema < 4): emu I/O gate skipped")
	case cand.EmuLoopback == nil:
		r.gatef(crossHost, "candidate has no emu_loopback probe (baseline does): emu I/O gate cannot run")
	default:
		b, c := base.EmuLoopback, cand.EmuLoopback
		r.linef("emu_loopback portable sustained: %.3gk -> %.3gk rps",
			emuSustained(b.Portable)/1e3, emuSustained(c.Portable)/1e3)
		switch {
		case c.Batched == nil:
			r.linef("emu_loopback batched path not compiled in on the candidate host: sustained-rate floor (%.0fk rps) not enforced",
				minEmuSustainedRPS/1e3)
		default:
			if b.Batched != nil {
				d := delta(b.Batched.SustainedRPS, c.Batched.SustainedRPS)
				r.linef("emu_loopback batched sustained: %.3gk -> %.3gk rps (%+.1f%%), speedup over portable %.2fx -> %.2fx",
					b.Batched.SustainedRPS/1e3, c.Batched.SustainedRPS/1e3, 100*d, b.Speedup, c.Speedup)
				if d < -maxEmuRateLoss {
					r.gatef(crossHost, "emu_loopback batched sustained rate regressed %.1f%% (%.3gk -> %.3gk rps, more than one ladder rung; tolerance %.0f%%)",
						-100*d, b.Batched.SustainedRPS/1e3, c.Batched.SustainedRPS/1e3, 100*maxEmuRateLoss)
				}
			} else {
				r.linef("emu_loopback batched sustained: %.3gk rps (no batched baseline, ratchet skipped)",
					c.Batched.SustainedRPS/1e3)
			}
			if c.Batched.SustainedRPS < minEmuSustainedRPS {
				r.gatef(crossHost, "emu_loopback batched sustained rate %.3gk rps is below the %.0fk floor (10x the pre-batching 4k default)",
					c.Batched.SustainedRPS/1e3, minEmuSustainedRPS/1e3)
			}
		}
	}

	// Per-experiment deltas: context, not gate. Only entries gated in
	// BOTH snapshots compare; everything else is named so it cannot
	// silently fall out of the report.
	baseByID := make(map[string]benchExperiment, len(base.Runs))
	for _, e := range base.Runs {
		baseByID[e.ID] = e
	}
	for _, c := range cand.Runs {
		b, ok := baseByID[c.ID]
		switch {
		case !ok:
			r.linef("experiment %-16s new (no baseline entry)", c.ID)
		case !c.Gated || !b.Gated:
			r.linef("experiment %-16s ungated (no simulation signal), skipped", c.ID)
		default:
			d := delta(b.EventsPerSec, c.EventsPerSec)
			r.linef("experiment %-16s events/sec %.3gM -> %.3gM (%+.1f%%)",
				c.ID, b.EventsPerSec/1e6, c.EventsPerSec/1e6, 100*d)
			if d < -expWarnLoss {
				r.warnf("experiment %s events/sec regressed %.1f%% (report-only)", c.ID, -100*d)
			}
		}
		delete(baseByID, c.ID)
	}
	// Baseline entries the candidate never ran are expected: compare
	// deliberately meters a small experiment subset (the gate is the
	// hot-path probe). One aggregate line keeps them visible.
	if len(baseByID) > 0 {
		r.linef("%d baseline experiment(s) not in candidate (subset run), skipped", len(baseByID))
	}

	return r
}

// emuSustained tolerates a snapshot whose portable entry is missing
// (hand-edited or truncated files) rather than panicking mid-report.
func emuSustained(r *benchEmuRate) float64 {
	if r == nil {
		return 0
	}
	return r.SustainedRPS
}

func delta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return new/old - 1
}

func hostString(h *benchHost) string {
	if h == nil {
		return "unknown (schema 1, no host metadata)"
	}
	s := fmt.Sprintf("%s/%s %d-cpu", h.GOOS, h.GOARCH, h.NumCPU)
	if h.CPUModel != "" {
		s += " " + h.CPUModel
	}
	return s
}

// runCompare loads both snapshots, prints the report, and returns
// whether the gate failed. reportOnly prints failures but reports pass.
func runCompare(w io.Writer, basePath, candPath string, reportOnly bool) (failed bool, err error) {
	base, err := readBenchJSON(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readBenchJSON(candPath)
	if err != nil {
		return false, err
	}
	r := compareBench(base, cand)
	fmt.Fprintf(w, "netclone-bench compare: %s (baseline) vs %s (candidate)\n", basePath, candPath)
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	for _, l := range r.warnings {
		fmt.Fprintln(w, "  WARN "+l)
	}
	for _, l := range r.failures {
		fmt.Fprintln(w, "  FAIL "+l)
	}
	switch {
	case len(r.failures) == 0:
		fmt.Fprintln(w, "compare: PASS")
		return false, nil
	case reportOnly:
		fmt.Fprintln(w, "compare: FAIL (report-only mode, not enforced)")
		return false, nil
	default:
		fmt.Fprintln(w, "compare: FAIL")
		return true, nil
	}
}

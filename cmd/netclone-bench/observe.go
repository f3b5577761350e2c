package main

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"netclone"
)

// runObserver aggregates one experiment's per-point observability — the
// Options.Observe side channel: total engine events and the busiest
// flight-recorder capture. Points complete concurrently under
// -parallel, so every entry point locks.
type runObserver struct {
	experiment string

	mu     sync.Mutex
	points int
	events int64
	trace  *capturedTrace
}

// capturedTrace is one point's flight-recorder output plus where it
// came from.
type capturedTrace struct {
	experiment string
	label      string
	data       *netclone.TraceData
}

// richer orders captures for the -trace file: most events win, ties go
// to the lexicographically first experiment/label so reruns pick the
// same capture.
func (t *capturedTrace) richer(u *capturedTrace) bool {
	if len(t.data.Events) != len(u.data.Events) {
		return len(t.data.Events) > len(u.data.Events)
	}
	if t.experiment != u.experiment {
		return t.experiment < u.experiment
	}
	return t.label < u.label
}

// observe is the Options.Observe callback.
func (o *runObserver) observe(label string, res netclone.ScenarioResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.points++
	o.events += res.EngineEvents
	if res.Trace != nil && len(res.Trace.Events) > 0 {
		t := &capturedTrace{experiment: o.experiment, label: label, data: res.Trace}
		if o.trace == nil || t.richer(o.trace) {
			o.trace = t
		}
	}
}

// summary renders the parenthetical for the per-experiment "finished
// in" stderr line.
func (o *runObserver) summary() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.points == 0 {
		return ""
	}
	return fmtEvents(o.events) + " engine events"
}

// bestTrace returns the experiment's richest capture, nil when tracing
// was off.
func (o *runObserver) bestTrace() *capturedTrace {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.trace
}

// fmtEvents renders an event count human-first: 1234567 -> "1.2M".
func fmtEvents(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// writeTraceFile writes a capture in the format the path implies:
// Chrome trace-event JSON by default, flat CSV for .csv paths.
func writeTraceFile(file string, d *netclone.TraceData) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(file, ".csv") {
		return netclone.WriteTraceCSV(f, d)
	}
	return netclone.WriteChromeTrace(f, d)
}

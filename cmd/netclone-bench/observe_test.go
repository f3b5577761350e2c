package main

import (
	"bytes"
	"os"
	"testing"

	"netclone"
)

// obsResult builds a minimal observed point.
func obsResult(events int64, trace *netclone.TraceData) netclone.ScenarioResult {
	var res netclone.ScenarioResult
	res.EngineEvents = events
	res.Trace = trace
	return res
}

func TestRunObserverSummaryUnsharded(t *testing.T) {
	o := &runObserver{experiment: "demo"}
	o.observe("p1", obsResult(900, nil))
	if s := o.summary(); s != "900 engine events" {
		t.Errorf("summary = %q; a run reports only events", s)
	}
	if o.bestTrace() != nil {
		t.Error("untraced run captured a trace")
	}
}

func TestRunObserverKeepsRichestTrace(t *testing.T) {
	mk := func(n int) *netclone.TraceData {
		return &netclone.TraceData{Events: make([]netclone.TraceEvent, n)}
	}
	o := &runObserver{experiment: "demo"}
	o.observe("small", obsResult(1, mk(3)))
	o.observe("big", obsResult(1, mk(9)))
	o.observe("tie-later", obsResult(1, mk(9)))
	best := o.bestTrace()
	if best == nil || best.label != "big" || len(best.data.Events) != 9 {
		t.Fatalf("best trace = %+v, want the first 9-event capture", best)
	}
	// Ties break toward the lexicographically first label.
	o.observe("aaa", obsResult(1, mk(9)))
	if got := o.bestTrace().label; got != "aaa" {
		t.Errorf("tie-break picked %q, want lexicographic order", got)
	}
}

func TestFmtEvents(t *testing.T) {
	cases := map[int64]string{
		7:             "7",
		1_234:         "1.2k",
		3_300_000:     "3.3M",
		2_500_000_000: "2.5B",
	}
	for n, want := range cases {
		if got := fmtEvents(n); got != want {
			t.Errorf("fmtEvents(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestWriteTraceFileFormats(t *testing.T) {
	d := &netclone.TraceData{Rate: 1, Events: []netclone.TraceEvent{
		{At: 5, Client: 1, Seq: 2, Value: -1, Port: -1, Kind: 1},
	}}
	dir := t.TempDir()

	jsonPath := dir + "/t.json"
	if err := writeTraceFile(jsonPath, d); err != nil {
		t.Fatal(err)
	}
	j, _ := os.ReadFile(jsonPath)
	if !bytes.Contains(j, []byte("traceEvents")) {
		t.Errorf("json export missing traceEvents: %q", j)
	}

	csvPath := dir + "/t.csv"
	if err := writeTraceFile(csvPath, d); err != nil {
		t.Fatal(err)
	}
	c, _ := os.ReadFile(csvPath)
	if !bytes.HasPrefix(c, []byte("at_ns,kind,")) {
		t.Errorf("csv export missing header: %q", c)
	}
}

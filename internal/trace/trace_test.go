package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestRecorderRingHeadDrop(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: int64(i), Kind: KindIssue})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	d := r.Snapshot()
	if len(d.Events) != 4 || d.Dropped != 6 || d.Rate != 1 {
		t.Fatalf("snapshot = %d events, dropped %d, rate %d", len(d.Events), d.Dropped, d.Rate)
	}
	for i, e := range d.Events {
		if want := int64(6 + i); e.At != want {
			t.Errorf("event %d: At = %d, want %d (newest window, time order)", i, e.At, want)
		}
	}
}

func TestRecorderPartialSnapshotOrder(t *testing.T) {
	r := NewRecorder(2, 8)
	for i := 0; i < 3; i++ {
		r.Record(Event{At: int64(i)})
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	d := r.Snapshot()
	for i, e := range d.Events {
		if e.At != int64(i) {
			t.Errorf("event %d: At = %d, want recording order", i, e.At)
		}
	}
}

// TestRecordAheadKeepsTimeOrder interleaves records stamped ahead of
// the clock, as the client receiver's end of RX is, with records at the
// clock, across a ring that wraps: the ring must hold them in
// nondecreasing At, equal-At ahead records in recording order and
// ahead of a clock record at the same At, and so head-drop must keep
// the newest window by time.
func TestRecordAheadKeepsTimeOrder(t *testing.T) {
	r := NewRecorder(1, 6)
	// Seq tells the records apart.
	type rec struct {
		at    int64
		seq   uint32
		ahead bool
	}
	for _, e := range []rec{
		{0, 0, false}, {9, 1, true}, {1, 2, false}, {4, 3, true}, {9, 4, true},
		{2, 5, false}, {4, 6, false}, {5, 7, false}, {12, 8, true}, {9, 9, false},
	} {
		ev := Event{At: e.at, Seq: e.seq}
		if e.ahead {
			r.RecordAhead(ev)
		} else {
			r.Record(ev)
		}
	}
	// Filed order: 0@0 2@1 5@2 3@4 6@4 7@5 1@9 4@9 9@9, then 8@12 at
	// Snapshot; a ring of 6 keeps the last six.
	d := r.Snapshot()
	var got []uint32
	for _, e := range d.Events {
		got = append(got, e.Seq)
	}
	if want := []uint32{6, 7, 1, 4, 9, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot seqs = %v, want %v", got, want)
	}
	if d.Dropped != 4 {
		t.Errorf("Dropped = %d, want 4", d.Dropped)
	}
}

func TestRecorderTraced(t *testing.T) {
	r := NewRecorder(4, 8)
	for seq := uint32(0); seq < 12; seq++ {
		if got, want := r.Traced(seq), seq%4 == 0; got != want {
			t.Errorf("Traced(%d) = %v, want %v", seq, got, want)
		}
	}
	// Rate floors at 1: everything sampled.
	r = NewRecorder(0, 8)
	if r.Rate() != 1 || !r.Traced(7) {
		t.Errorf("rate-0 recorder: Rate = %d, Traced(7) = %v, want every request sampled", r.Rate(), r.Traced(7))
	}
}

func TestRecorderDefaultCap(t *testing.T) {
	r := NewRecorder(1, 0)
	if got := len(r.buf); got != DefaultCap {
		t.Errorf("cap %d, want DefaultCap %d", got, DefaultCap)
	}
}

// TestRecorderResetReusesRing: a recorder that wrapped and dropped
// comes back from Reset indistinguishable from a new one
// of the requested shape, on the same backing array when it is large
// enough — stale records included, since none can be read back.
func TestRecorderResetReusesRing(t *testing.T) {
	r := NewRecorder(3, 8)
	for i := 0; i < 20; i++ {
		r.Record(Event{At: int64(i), Seq: 99})
	}
	ring := &r.buf[0]

	r.Reset(2, 4)
	if r.Len() != 0 || r.Dropped() != 0 || r.Rate() != 2 || len(r.buf) != 4 {
		t.Fatalf("after Reset(2, 4): Len %d, Dropped %d, Rate %d, ring %d", r.Len(), r.Dropped(), r.Rate(), len(r.buf))
	}
	if &r.buf[0] != ring {
		t.Error("Reset to a smaller capacity reallocated the ring")
	}
	if got := r.Snapshot().Events; len(got) != 0 {
		t.Fatalf("stale records readable after Reset: %+v", got)
	}
	r.Record(Event{At: 7})
	fresh := NewRecorder(2, 4)
	fresh.Record(Event{At: 7})
	if got, want := r.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("recycled recorder snapshot %+v, fresh %+v", got, want)
	}
	for i := 0; i < 9; i++ { // wrap the smaller ring inside the larger backing
		r.Record(Event{At: int64(10 + i)})
	}
	if got := r.Snapshot().Events; len(got) != 4 || got[0].At != 15 || got[3].At != 18 {
		t.Errorf("wrapped recycled ring holds %+v, want the last four records", got)
	}

	r.Reset(1, 16)
	if len(r.buf) != 16 || r.Len() != 0 {
		t.Errorf("Reset to a larger capacity: ring %d, Len %d", len(r.buf), r.Len())
	}
	// AllocsPerRun's warm-up call grows the ring to DefaultCap once;
	// after that both shapes fit the ring the recorder keeps.
	if n := testing.AllocsPerRun(10, func() { r.Reset(1, 0); r.Reset(1, 16) }); n != 0 {
		t.Errorf("Reset allocates %.0f times with a large enough ring kept", n)
	}
}

// synthetic builds one cloned request's lifecycle on two racks: issue,
// dispatch+clone fan-out, an ECN mark on the clone's path, both
// services, the filter race, and completion.
func synthetic() *Data {
	ev := func(at int64, k Kind, value, port int32, rack uint16, flags uint8) Event {
		return Event{At: at, Seq: 8, Value: value, Port: port, Client: 2, Rack: rack, Kind: k, Flags: flags}
	}
	return &Data{Rate: 1, Events: []Event{
		ev(100, KindIssue, -1, -1, 0, 0),
		ev(120, KindDispatch, 5, -1, 0, 0),
		ev(120, KindClone, -1, -1, 0, FlagClone),
		ev(121, KindDispatch, 9, -1, 0, FlagClone),
		ev(130, KindMark, 6, 3, 1, FlagClone|FlagECN),
		ev(140, KindServerStart, 5, -1, 0, 0),
		ev(150, KindServerStart, 9, -1, 1, FlagClone|FlagECN),
		ev(900, KindServerFinish, 9, -1, 1, FlagClone|FlagECN),
		ev(910, KindWin, 9, -1, 0, FlagClone|FlagECN),
		ev(950, KindServerFinish, 5, -1, 0, 0),
		ev(955, KindFilterDrop, 5, -1, 0, 0),
		ev(980, KindComplete, 880, -1, 0, FlagClone|FlagECN),
	}}
}

func TestWriteChromeSynthetic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	names := map[string]bool{}
	var request, cloneFlight, service, instants int
	for _, e := range f.TraceEvents {
		names[e.Ph+" "+e.Name] = true
		switch {
		case e.Ph == "X" && e.Cat == "request":
			request++
			if e.Dur != us(880) {
				t.Errorf("request span dur %v, want issue->complete", e.Dur)
			}
			if w, _ := e.Args["winner"].(float64); w != 9 {
				t.Errorf("winner arg %v, want the first server past the filter (9)", e.Args["winner"])
			}
			if e.Args["cloned"] != true || e.Args["ecn"] != true {
				t.Errorf("request args %v, want cloned+ecn", e.Args)
			}
		case e.Ph == "X" && e.Cat == "flight" && strings.HasPrefix(e.Name, "clone flight"):
			cloneFlight++
			if e.Tid != 1 {
				t.Errorf("clone flight on tid %d, want the finishing server's rack 1", e.Tid)
			}
		case e.Ph == "X" && e.Cat == "service":
			service++
		case e.Ph == "i":
			instants++
		}
	}
	if !names["M process_name"] || !names["M thread_name"] {
		t.Error("missing track metadata")
	}
	if request != 1 || cloneFlight != 1 || service != 2 {
		t.Errorf("spans: %d request, %d clone flight, %d service; want 1/1/2", request, cloneFlight, service)
	}
	// mark, win, filter-drop, clone fan-out -> instants.
	if instants < 4 {
		t.Errorf("%d instant events, want >= 4", instants)
	}
}

func TestWriteChromeDroppedCopyHasNoSpan(t *testing.T) {
	// A dispatch with no matching finish (dropped en route) must not
	// emit a dangling flight span.
	d := &Data{Rate: 1, Events: []Event{
		{At: 10, Kind: KindIssue, Client: 1, Seq: 0, Value: -1, Port: -1},
		{At: 20, Kind: KindDispatch, Client: 1, Seq: 0, Value: 4, Port: -1},
		{At: 30, Kind: KindPortDrop, Client: 1, Seq: 0, Value: 16, Port: 2},
	}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, d); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Contains(s, "flight") {
		t.Error("dangling flight span for a dropped copy")
	}
	if !strings.Contains(s, "port-drop") {
		t.Error("drop instant missing")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 13 {
		t.Fatalf("%d lines, want header + 12 rows", len(lines))
	}
	if lines[0] != "at_ns,kind,client,seq,rack,flags,value,port" {
		t.Errorf("header %q", lines[0])
	}
	if want := "130,mark,2,8,1,clone|ecn,6,3"; lines[5] != want {
		t.Errorf("mark row %q, want %q", lines[5], want)
	}
	if want := "100,issue,2,8,0,,-1,-1"; lines[1] != want {
		t.Errorf("issue row %q, want %q", lines[1], want)
	}
}

func TestKindString(t *testing.T) {
	if KindIssue.String() != "issue" || KindRedundant.String() != "redundant" {
		t.Error("kind labels out of sync with the Kind enum")
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind must not panic")
	}
}

func TestRecordZeroAllocs(t *testing.T) {
	r := NewRecorder(1, 64)
	e := Event{At: 1, Kind: KindIssue}
	allocs := testing.AllocsPerRun(1000, func() {
		e.At++
		r.Record(e)
	})
	if allocs != 0 {
		t.Errorf("Record allocates %.1f per call, want 0", allocs)
	}
}

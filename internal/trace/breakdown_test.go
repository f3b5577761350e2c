package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// lifecycles builds a capture whose ring head was overwritten: the
// tail of one request whose issue record is gone, then three whole
// requests — a C-Clone-style pair where both responses pass the switch
// and the first wins, a NetClone pair the clone wins, and a direct
// write with a single copy — and one traced request still in flight.
func lifecycles() *Data {
	ev := func(at int64, client uint16, seq uint32, k Kind, value int32, flags uint8) Event {
		return Event{At: at, Seq: seq, Value: value, Port: -1, Client: client, Kind: k, Flags: flags}
	}
	return &Data{Rate: 1, Dropped: 3, Events: []Event{
		// Head-dropped: issue, dispatch and arrive overwritten.
		ev(-900, 3, 0, KindServerStart, 4, 0),
		ev(0, 3, 0, KindServerFinish, 4, 0),
		ev(5, 3, 0, KindWin, 4, 0),

		// C-Clone-style: two plain copies, both past the switch.
		ev(10, 1, 0, KindIssue, -1, 0),
		ev(12, 3, 0, KindComplete, 1_000_000, 0),
		ev(20, 1, 0, KindDispatch, 5, 0),
		ev(20, 1, 0, KindDispatch, 9, 0),
		ev(30, 1, 0, KindServerArrive, 5, 0),
		ev(30, 1, 0, KindServerArrive, 9, 0),
		ev(180, 1, 0, KindServerStart, 5, 0),
		ev(410, 1, 0, KindServerStart, 9, 0),
		ev(1180, 1, 0, KindServerFinish, 5, 0),
		ev(1190, 1, 0, KindWin, 5, 0),
		ev(1310, 1, 0, KindComplete, 1300, 0),
		ev(5410, 1, 0, KindServerFinish, 9, 0),
		ev(5420, 1, 0, KindWin, 9, 0),
		ev(5500, 1, 0, KindRedundant, 9, 0),

		// NetClone: the switch-made clone wins.
		ev(6000, 1, 1, KindIssue, -1, 0),
		ev(6010, 1, 1, KindDispatch, 5, 0),
		ev(6010, 1, 1, KindClone, -1, FlagClone),
		ev(6011, 1, 1, KindDispatch, 9, FlagClone),
		ev(6020, 1, 1, KindServerArrive, 5, 0),
		ev(6021, 1, 1, KindServerArrive, 9, FlagClone),
		ev(6170, 1, 1, KindServerStart, 5, 0),
		ev(6171, 1, 1, KindServerStart, 9, FlagClone),
		ev(6571, 1, 1, KindServerFinish, 9, FlagClone),
		ev(6580, 1, 1, KindWin, 9, FlagClone),
		ev(6700, 1, 1, KindComplete, 700, FlagClone),
		ev(7170, 1, 1, KindServerFinish, 5, 0),
		ev(7180, 1, 1, KindFilterDrop, 5, 0),

		// A direct write: one copy, no KindWin.
		ev(8000, 2, 0, KindIssue, -1, 0),
		ev(8010, 2, 0, KindDispatch, 3, 0),
		ev(8020, 2, 0, KindServerArrive, 3, 0),
		ev(8170, 2, 0, KindServerStart, 3, 0),
		ev(8270, 2, 0, KindServerFinish, 3, 0),
		ev(8400, 2, 0, KindComplete, 400, 0),

		// Still in flight when the run ended.
		ev(9000, 2, 1, KindIssue, -1, 0),
		ev(9010, 2, 1, KindDispatch, 3, 0),
		ev(9020, 2, 1, KindServerArrive, 3, 0),
	}}
}

func TestBreakdownReducesWholeRequests(t *testing.T) {
	b := lifecycles().Breakdown()
	if b.Sampled != 3 || b.WonByClone != 1 {
		t.Fatalf("sampled %d, clone wins %d; want the 3 whole completed requests, 1 won by the clone",
			b.Sampled, b.WonByClone)
	}
	// Every winner arrived 150 ns before its start.
	if b.QueueWait.Min != 150 || b.QueueWait.Max != 150 {
		t.Errorf("queue wait %d..%d ns, want 150", b.QueueWait.Min, b.QueueWait.Max)
	}
	// The C-Clone pair's first response past the switch served for
	// 1000 ns; the second, 5000 ns, lost the race.
	if b.Service.Min != 100 || b.Service.Max != 1000 {
		t.Errorf("service %d..%d ns, want 100..1000 (the first winner's copy)", b.Service.Min, b.Service.Max)
	}
	if b.Path.Min != 150 || b.Path.Max != 150 {
		t.Errorf("path %d..%d ns, want 150", b.Path.Min, b.Path.Max)
	}
}

func TestBreakdownSkipsHeadDroppedRequests(t *testing.T) {
	d := lifecycles()
	// Keep only the request whose issue record the ring overwrote: its
	// start, finish, win and complete records are all still there.
	var tail []Event
	for _, e := range d.Events {
		if e.Client == 3 {
			tail = append(tail, e)
		}
	}
	d.Events = append(tail, Event{At: -1000, Client: 3, Kind: KindServerArrive, Value: 4})
	if b := d.Breakdown(); b.Sampled != 0 {
		t.Errorf("a request without its issue record was counted: %+v", b)
	}
}

func TestWriteChromeDrawsNoServerArrive(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, lifecycles()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), KindServerArrive.String()) {
		t.Error("Chrome export draws server-arrive records")
	}
	if !strings.Contains(buf.String(), KindFilterDrop.String()) {
		t.Error("Chrome export lost its instants")
	}
}

// FuzzTraceReduction decodes bytes into an arbitrary record sequence —
// kinds in and out of range, few clients, sequence numbers and servers
// so records collide into groups, times in any order — the shape a
// head-dropped ring leaves behind and worse. Neither WriteChrome nor
// Breakdown may panic, the breakdown counts at most one request per
// completion, and every request it counts has non-negative phases.
func FuzzTraceReduction(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 10, 0, 0, 2, 1, 0, 11, 0, 0, 2, 2, 0, 12, 0, 0, 2, 3, 1, 15, 0, 0, 2, 4, 0, 16, 0, 0, 9, 5, 0})
	f.Add([]byte{12, 1, 1, 7, 250, 63, 11, 1, 1, 7, 1, 1, 10, 1, 1, 7, 128, 62, 15, 1, 1, 7, 3, 0, 16, 1, 1, 100, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &Data{Rate: 1}
		for ; len(data) >= 6; data = data[6:] {
			d.Events = append(d.Events, Event{
				Kind:   Kind(data[0] % byte(len(kindNames)+2)),
				Client: uint16(data[1] % 3),
				Seq:    uint32(data[2] % 4),
				Value:  int32(int8(data[3])),
				At:     int64(int8(data[4])) << (data[5] % 64),
				Flags:  data[5] >> 6,
			})
		}
		if err := WriteChrome(io.Discard, d); err != nil {
			t.Fatal(err)
		}
		b := d.Breakdown()
		var completes, counted, clones int64
		for _, e := range d.Events {
			if e.Kind == KindComplete {
				completes++
			}
		}
		forEachRequest(d, func(r *request) {
			wait, svc, path, clone, ok := r.phases()
			if !ok {
				return
			}
			if wait < 0 || svc < 0 || path < 0 {
				t.Fatalf("counted request has a negative phase: wait %d, service %d, path %d", wait, svc, path)
			}
			counted++
			if clone {
				clones++
			}
		})
		if b.Sampled > completes || b.Sampled != counted || b.WonByClone != clones {
			t.Fatalf("breakdown sampled %d (clone wins %d) of %d completions; per request %d (%d)",
				b.Sampled, b.WonByClone, completes, counted, clones)
		}
	})
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Exporters for the flight-recorder data: the Chrome trace-event JSON
// format (loadable at ui.perfetto.dev or chrome://tracing) and a flat
// CSV dump. Export runs after the simulation, so unlike Record it may
// allocate freely.

// chromeEvent is one entry of the Chrome trace-event JSON array.
// Timestamps and durations are in microseconds (the format's unit);
// tid carries the rack so Perfetto renders one process with one track
// per rack.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// us converts virtual nanoseconds to the format's microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// groupKey identifies a logical request across all of its copies.
func groupKey(e Event) uint64 { return uint64(e.Client)<<32 | uint64(e.Seq) }

// WriteChrome renders d as Chrome trace-event JSON. Layout: one
// process, one thread track per rack. Each traced request
// gets an outer request-lifetime span on the issuing client's track;
// each copy (the original and any clone fan-out) gets an in-flight
// span on its destination server's track with the service span nested
// inside it, so a cloned request reads as two parallel nested span
// pairs. Marks, drops, suppressions, and filter decisions appear as
// instant events at their hop.
func WriteChrome(w io.Writer, d *Data) error {
	var out []chromeEvent

	// Track metadata: name every rack that appears.
	if len(d.Events) > 0 {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M",
			Args: map[string]any{"name": "cluster"},
		})
	}
	seenTrack := map[int]bool{}
	for _, e := range d.Events {
		tid := int(e.Rack)
		if !seenTrack[tid] {
			seenTrack[tid] = true
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("rack %d", tid)},
			})
		}
	}

	forEachRequest(d, func(r *request) { out = append(out, chromeRequest(r)...) })

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// byKind holds the first record of each kind, nil where there is none.
type byKind [len(kindNames)]*Event

// request is one logical request rebuilt from its records.
type request struct {
	// evs holds the request's records in Data order: by time, ties in
	// recording order.
	evs []Event
	// first holds the request's first record of each kind.
	first byKind
	// copies matches the dispatch, arrive, start and finish records to
	// request copies by server ID, which is distinct for the original
	// and its clone (a group's two candidates are different servers by
	// construction).
	copies map[int32]*byKind
}

// forEachRequest rebuilds every logical request in d from its records,
// in first-appearance order so the callers' output is deterministic,
// and calls fn on each. It is the one place a request is rebuilt from
// the recorder's records: WriteChrome and Breakdown both read it.
func forEachRequest(d *Data, fn func(r *request)) {
	groups := map[uint64][]Event{}
	var order []uint64
	for _, e := range d.Events {
		k := groupKey(e)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], e)
	}
	for _, k := range order {
		r := request{evs: groups[k], copies: map[int32]*byKind{}}
		for i := range r.evs {
			e := &r.evs[i]
			if int(e.Kind) < len(r.first) && r.first[e.Kind] == nil {
				r.first[e.Kind] = e
			}
			switch e.Kind {
			case KindDispatch, KindServerArrive, KindServerStart, KindServerFinish:
				c := r.copies[e.Value]
				if c == nil {
					c = &byKind{}
					r.copies[e.Value] = c
				}
				if c[e.Kind] == nil {
					c[e.Kind] = e
				}
			}
		}
		fn(&r)
	}
}

// chromeRequest renders one logical request.
func chromeRequest(r *request) []chromeEvent {
	var out []chromeEvent
	evs := r.evs
	issue, complete, win := r.first[KindIssue], r.first[KindComplete], r.first[KindWin]
	name := fmt.Sprintf("req c%d#%d", evs[0].Client, evs[0].Seq)

	// Outer request-lifetime span on the issuing client's track.
	if issue != nil && complete != nil && complete.At >= issue.At {
		args := map[string]any{
			"cloned":     r.first[KindClone] != nil,
			"latency_ns": complete.Value,
		}
		if r.first[KindSuppress] != nil {
			args["suppressed"] = true
		}
		if r.first[KindBudgetSkip] != nil {
			args["budget_skip"] = true
		}
		if win != nil {
			args["winner"] = win.Value // first response past the filter
		}
		if complete.Flags&FlagECN != 0 {
			args["ecn"] = true
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "X", Cat: "request",
			Ts: us(issue.At), Dur: us(complete.At - issue.At),
			Tid: int(issue.Rack), Args: args,
		})
	}

	// Per-copy nested spans on the destination server's track: the
	// in-flight span (dispatch -> finish) containing the service span
	// (start -> finish). Deterministic copy order: walk the events
	// instead of the map.
	emitted := map[int32]bool{}
	for i := range evs {
		e := &evs[i]
		if e.Kind != KindDispatch || emitted[e.Value] {
			continue
		}
		emitted[e.Value] = true
		c := r.copies[e.Value]
		disp, start, fin := c[KindDispatch], c[KindServerStart], c[KindServerFinish]
		if fin == nil {
			continue // dropped en route or in queue: no span to close
		}
		copyName := fmt.Sprintf("%s s%d", name, e.Value)
		flight := "flight"
		if e.Flags&FlagClone != 0 {
			flight = "clone flight"
		}
		// Anchor both spans on the server's track so they nest.
		tid := int(fin.Rack)
		out = append(out, chromeEvent{
			Name: flight + " " + copyName, Ph: "X", Cat: "flight",
			Ts: us(disp.At), Dur: us(fin.At - disp.At), Tid: tid,
			Args: map[string]any{"server": e.Value, "clone": e.Flags&FlagClone != 0},
		})
		if start != nil {
			out = append(out, chromeEvent{
				Name: "service " + copyName, Ph: "X", Cat: "service",
				Ts: us(start.At), Dur: us(fin.At - start.At), Tid: tid,
				Args: map[string]any{"server": e.Value, "clone": e.Flags&FlagClone != 0},
			})
		}
	}

	// Everything else is an instant at its hop.
	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case KindIssue, KindComplete, KindDispatch, KindServerArrive,
			KindServerStart, KindServerFinish, KindPortEnqueue:
			continue
		}
		args := map[string]any{"req": name}
		if e.Value >= 0 {
			args["value"] = e.Value
		}
		if e.Port >= 0 {
			args["port"] = e.Port
		}
		if e.Flags&FlagECN != 0 {
			args["ecn"] = true
		}
		if e.Flags&FlagClone != 0 {
			args["clone"] = true
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(), Ph: "i", Cat: "hop", S: "t",
			Ts: us(e.At), Tid: int(e.Rack), Args: args,
		})
	}
	return out
}

// WriteCSV dumps every record as one CSV row:
// at_ns,kind,client,seq,rack,flags,value,port.
func WriteCSV(w io.Writer, d *Data) error {
	if _, err := io.WriteString(w, "at_ns,kind,client,seq,rack,flags,value,port\n"); err != nil {
		return err
	}
	for i := range d.Events {
		e := &d.Events[i]
		flags := ""
		if e.Flags&FlagClone != 0 {
			flags = "clone"
		}
		if e.Flags&FlagECN != 0 {
			if flags != "" {
				flags += "|"
			}
			flags += "ecn"
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%s,%d,%d\n",
			e.At, e.Kind, e.Client, e.Seq, e.Rack, flags, e.Value, e.Port); err != nil {
			return err
		}
	}
	return nil
}

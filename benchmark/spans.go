package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing as the benchmark does it: a span around every call the
// benchmark makes into a layer of the program, recorded from out here.
// Nothing inside the program is instrumented. A nil *recorder is
// tracing off: every method returns at once, so the untraced run
// executes the same code with no recording.

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); spans of one request or experiment
// point share ID. N is the work counted at the same boundary (completed
// requests, points, bytes), so ratios are taken where the work happens.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id,omitempty"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int64  `json:"n,omitempty"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the generator's receiver records request spans while
// the main goroutine records phase spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, -1 with tracing off.
func (r *recorder) begin(name string, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, StartNS: now, EndNS: now})
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

// end closes span i, attaching its work count.
func (r *recorder) end(i int32, n int64) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].EndNS = now
	r.spans[i].N = n
	r.mu.Unlock()
}

// add records a span whose interval the caller timed itself (a request
// is sent by one goroutine and answered on another).
func (r *recorder) add(name string, parent int32, id int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(), N: 1,
	})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime is one span name's totals.
type layerTime struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
	N       int64 `json:"n"`
}

// selfTimes folds spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover; children
// may overlap one another (a window of requests in flight), so the
// covered part is the length of the union of their intervals clipped to
// the parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.EndNS - s.StartNS
		lt := out[s.Name]
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered(spans, children[int32(i)], s.StartNS, s.EndNS)
		lt.N += s.N
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of the kids' intervals inside
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
	var total int64
	cur := lo
	for _, k := range kids {
		s, e := spans[k].StartNS, spans[k].EndNS
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// traceFile is what a layer run writes beside its metrics.
type traceFile struct {
	Workload string               `json:"workload"`
	Layers   map[string]layerTime `json:"layers"`
	Spans    []span               `json:"spans"`
}

// write dumps the spans and their per-name fold to path.
func (r *recorder) write(path, workload string) error {
	if r == nil {
		return nil
	}
	spans := r.snapshot()
	data, err := json.Marshal(traceFile{Workload: workload, Layers: selfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

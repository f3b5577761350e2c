package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the root of
// the repository lists the same names, units and directions (a unit
// test holds the two together); the table lives here so that -compare
// and the printed report need no file outside this directory.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // true when a larger value is better
	Bound  float64 // end-to-end only: share of the median it may worsen by
	// Moves says, for a per-layer metric, which end-to-end metric on
	// which workload it is expected to move — written down before
	// anything was measured, so a gain that shows up elsewhere than
	// predicted is a finding.
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
// Every host time among them is in reference seconds (see ref.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "requests_per_sec", Unit: "1/s", Higher: true, Bound: 0.20},
	{Name: "rtt_p50_us", Unit: "us", Bound: 0.25},
	{Name: "rtt_p99_us", Unit: "us", Bound: 0.25},
	{Name: "cpu_us_per_request", Unit: "us", Bound: 0.20},
}

// perLayer is the ledger of single layers, measured in the layer run
// only. A metric reads 0 on a workload that does not exercise its
// layer.
var perLayer = []metricDef{
	{Name: "simnet.ns_per_event", Unit: "ns", Moves: "requests_per_sec on sim-hotpath (12.9 events per request, so nearly 1:1); nothing on emu-loopback"},
	{Name: "simnet.events_per_sec", Unit: "1/s", Higher: true, Moves: "requests_per_sec on the three sim workloads"},
	{Name: "dataplane.process_req_ns", Unit: "ns", Moves: "requests_per_sec on sim-hotpath; a few % of rtt_p50_us on emu-loopback"},
	{Name: "dataplane.process_resp_ns", Unit: "ns", Moves: "as dataplane.process_req_ns"},
	{Name: "dataplane.clone_recirc_ns", Unit: "ns", Moves: "as dataplane.process_req_ns, scaled by dataplane.clone_frac"},
	{Name: "dataplane.clone_frac", Unit: "ratio", Higher: true, Moves: "rtt_p99_us (the paper's mechanism); costs requests_per_sec and cpu_us_per_request on emu-loopback"},
	{Name: "dataplane.filter_miss_frac", Unit: "ratio", Moves: "cpu_us_per_request on emu-loopback (a redundant response is handled for nothing)"},
	{Name: "simcluster.events_per_request", Unit: "count", Moves: "requests_per_sec on sim-hotpath, 1:1 with simnet.ns_per_event held"},
	{Name: "simcluster.ns_per_request", Unit: "ns", Moves: "requests_per_sec on sim-hotpath (its reciprocal)"},
	{Name: "simcluster.self_ns_per_request", Unit: "ns", Moves: "requests_per_sec on sim-hotpath: what is left of a request once the unit costs below it are subtracted"},
	{Name: "simcluster.self_share", Unit: "ratio", Moves: "none; the share of simcluster.ns_per_request the ledger does not attribute to a lower layer"},
	{Name: "simcluster.allocs_per_run", Unit: "count", Moves: "requests_per_sec on suite-quick (short runs); nothing on sim-hotpath"},
	{Name: "simcluster.setup_us_per_run", Unit: "us", Moves: "requests_per_sec on suite-quick (many short points); about 2% of a sim-hotpath run"},
	{Name: "simcluster.shard_speedup", Unit: "ratio", Higher: true, Moves: "requests_per_sec on sim-fabric-sharded only"},
	{Name: "simcluster.seq_requests_per_sec", Unit: "1/s", Higher: true, Moves: "the reference simcluster.shard_speedup divides by"},
	{Name: "simcluster.shard_cpu_per_wall", Unit: "ratio", Moves: "cpu_us_per_request on sim-fabric-sharded only (cores burnt per wall second)"},
	{Name: "simcluster.effective_shards", Unit: "count", Moves: "none; 1 means the request fell back to the sequential engine"},
	{Name: "workload.exp_draw_ns", Unit: "ns", Moves: "requests_per_sec on sim-hotpath (one draw per executed request)"},
	{Name: "workload.poisson_gap_ns", Unit: "ns", Moves: "requests_per_sec on sim-hotpath (one gap per request)"},
	{Name: "workload.kvmix_next_ns", Unit: "ns", Moves: "requests_per_sec on suite-quick (fig11/fig12 points) and the emu generator"},
	{Name: "stats.record_ns", Unit: "ns", Moves: "requests_per_sec on sim-hotpath (one record per completed request)"},
	{Name: "stats.summarize_us", Unit: "us", Moves: "requests_per_sec on suite-quick (once per point)"},
	{Name: "scenario.build_us", Unit: "us", Moves: "requests_per_sec on suite-quick; nothing elsewhere"},
	{Name: "runner.dispatch_us_per_task", Unit: "us", Moves: "requests_per_sec on suite-quick; nothing elsewhere"},
	{Name: "harness.overhead_us_per_point", Unit: "us", Moves: "requests_per_sec on suite-quick; nothing elsewhere"},
	{Name: "harness.overhead_share", Unit: "ratio", Moves: "with harness.backend_share and harness.render_share sums to 1; a gap is a missing layer"},
	{Name: "harness.backend_share", Unit: "ratio", Higher: true, Moves: "none; the share of a sweep spent inside Backend.Run"},
	{Name: "harness.render_share", Unit: "ratio", Moves: "none; the share of a sweep spent in RenderCSV"},
	{Name: "harness.allocs_per_point", Unit: "count", Moves: "requests_per_sec and cpu_us_per_request on suite-quick"},
	{Name: "harness.render_us_per_report", Unit: "us", Moves: "requests_per_sec on suite-quick; nothing elsewhere"},
	{Name: "harness.points", Unit: "count", Moves: "none; the divisor of the per-point figures"},
	{Name: "trace.record_ns", Unit: "ns", Moves: "nothing with tracing off"},
	{Name: "trace.sim_overhead_frac", Unit: "ratio", Moves: "nothing with tracing off; guards the telemetry roadmap item"},
	{Name: "wire.marshal_ns", Unit: "ns", Moves: "requests_per_sec on emu-loopback (six marshals per request)"},
	{Name: "wire.unmarshal_ns", Unit: "ns", Moves: "requests_per_sec on emu-loopback"},
	{Name: "kvstore.get_ns", Unit: "ns", Moves: "requests_per_sec on emu-loopback"},
	{Name: "kvstore.scan100_ns", Unit: "ns", Moves: "requests_per_sec on emu-loopback (5% of operations)"},
	{Name: "udpemu.switch_hop_rps", Unit: "1/s", Higher: true, Moves: "requests_per_sec on emu-loopback first, rtt_p50_us second"},
	{Name: "udpemu.switch_hop_p50_us", Unit: "us", Moves: "rtt_p50_us on emu-loopback (two switch hops per request)"},
	{Name: "udpemu.server_hop_rps", Unit: "1/s", Higher: true, Moves: "requests_per_sec on emu-loopback"},
	{Name: "udpemu.server_hop_p50_us", Unit: "us", Moves: "rtt_p50_us on emu-loopback"},
	{Name: "udpemu.portable_saturation_rps", Unit: "1/s", Higher: true, Moves: "none; the reference I/O path requests_per_sec is read against"},
	{Name: "udpemu.window2_rps", Unit: "1/s", Higher: true, Moves: "none; the rate behind rtt_p50_us (two requests in flight)"},
	{Name: "udpemu.window2_cpu_us_per_request", Unit: "us", Moves: "none; cpu_us_per_request is taken at saturation, this is the same figure with batching idle"},
	{Name: "udpemu.sat_p50_us", Unit: "us", Moves: "none; queueing delay at the saturation window"},
	{Name: "udpemu.sat_p99_us", Unit: "us", Moves: "none; queueing delay at the saturation window"},
	{Name: "udpemu.rtt_p999_us", Unit: "us", Moves: "rtt_p99_us on emu-loopback follows it"},
	{Name: "udpemu.ctxsw_per_request", Unit: "count", Moves: "requests_per_sec and cpu_us_per_request on emu-loopback"},
	{Name: "udpemu.rcvbuf_drops", Unit: "count", Moves: "rtt_p99_us on emu-loopback (a dropped copy is answered by its clone, later); failed requests when both copies go"},
	{Name: "udpemu.redundant_frac", Unit: "ratio", Moves: "cpu_us_per_request on emu-loopback"},
	{Name: "udpemu.send_errors", Unit: "count", Moves: "none; non-zero means host socket trouble"},
	{Name: "udpemu.lost_requests", Unit: "count", Moves: "rtt beyond p99.9 on emu-loopback; first attempts unanswered at the 50 ms deadline and sent again, counted, not hidden"},
	{Name: "udpemu.client_open16k_p50_us", Unit: "us", Moves: "none; what scenario.Emu's own client reports at 16k req/s"},
	{Name: "udpemu.client_open16k_p99_us", Unit: "us", Moves: "none; as above"},
	{Name: "udpemu.start_ms", Unit: "ms", Moves: "setup_s on emu-loopback"},
	{Name: "udpemu.close_ms", Unit: "ms", Moves: "setup_s on emu-loopback"},
	{Name: "udpemu.goroutines_leaked", Unit: "count", Moves: "none; goroutines alive after Close beyond those before StartCluster"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Moves: "none; memory a run of the workload needs"},
	{Name: "proc.gc_cycles", Unit: "count", Moves: "cpu_us_per_request on every workload"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Moves: "rtt_p99_us on emu-loopback"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Moves: "none; what the benchmark's own span recording costs the workload"},
}

// value is one reported number with the slices behind it.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
}

// check is one output check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced. The driver
// reads the last line of standard output (see line); the file written
// under -out keeps the slices, checks and environment as well.
type result struct {
	Workload     string           `json:"workload"`
	Seed         uint64           `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Trace        bool             `json:"trace"`
	Env          environment      `json:"env"`
	Correct      bool             `json:"correct"`
	Attempted    int64            `json:"attempted"`
	Failed       int64            `json:"failed"`
	ResultSHA256 string           `json:"result_sha256,omitempty"`
	Checks       []check          `json:"checks"`
	Metrics      map[string]value `json:"metrics"`
	// HostTime holds the figures a normalised metric was made from: the
	// same slices in host seconds, and the host's speed against the
	// reference during each.
	HostTime map[string]value `json:"host_time,omitempty"`
	// Detail holds figures that explain a metric without being one
	// (the parts of setup_s, counts behind a ratio).
	Detail map[string]float64 `json:"detail,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// maxFailedFrac is how many operations may fail before a run is wrong:
// two in a thousand, the budget of a loopback datagram lost now and
// then. Any failed output check makes the run wrong regardless.
const maxFailedFrac = 0.002

// defined says whether name is in one of the two tables.
func defined(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// record stores a metric; a name in neither table is a typo in the
// benchmark, which would otherwise be dropped without a word.
func (r *result) record(name string, v value) {
	if !defined(name) {
		panic("benchmark: metric " + name + " is in neither table of metrics.go")
	}
	r.Metrics[name] = v
}

// set records a single-valued metric.
func (r *result) set(name string, v float64) { r.record(name, value{Value: v}) }

// setSlices records a metric as the median of its slices, with the
// quartiles beside it.
func (r *result) setSlices(name string, slices []float64) {
	q1, q3 := quartiles(slices)
	r.record(name, value{Value: median(slices), Q1: q1, Q3: q3, Slices: slices})
}

// setHost records a host-time figure beside the metrics.
func (r *result) setHost(name, unit string, slices []float64) {
	if r.HostTime == nil {
		r.HostTime = map[string]value{}
	}
	q1, q3 := quartiles(slices)
	r.HostTime[name] = value{Value: median(slices), Unit: unit, Q1: q1, Q3: q3, Slices: slices}
}

// verify records an output check; a miss counts as a failed operation.
// A check made several times in one run (the layer run measures a
// workload more than once) is listed once and holds only if every
// instance held.
func (r *result) verify(name string, ok bool, format string, args ...any) {
	r.Attempted++
	detail := ""
	if !ok {
		r.Failed++
		detail = fmt.Sprintf(format, args...)
	}
	for i := range r.Checks {
		if r.Checks[i].Name == name {
			if !ok {
				r.Checks[i].OK, r.Checks[i].Detail = false, detail
			}
			return
		}
	}
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// finish fills in units, puts 0 where a layer was not exercised, and
// decides correctness.
func (r *result) finish() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := r.Metrics[d.Name]
		v.Unit = d.Unit
		metrics[d.Name] = v
	}
	r.Metrics = metrics
	r.Correct = r.Attempted > 0 && float64(r.Failed) <= maxFailedFrac*float64(r.Attempted)
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
}

// line is the driver's contract: one JSON object with exactly these
// keys as the last line of standard output.
func (r *result) line() string {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool         `json:"correct"`
		Attempted int64        `json:"attempted"`
		Failed    int64        `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]m{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = m{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can get here; report it as a wrong run.
		return fmt.Sprintf(`{"correct":false,"attempted":1,"failed":1,"metrics":{},"error":%q}`, err)
	}
	return string(data)
}

// print writes the human-readable report: every metric by name and
// unit, quartiles where there are slices, then the checks.
func (r *result) print(w io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Trace {
		kind = "per-layer, layer run"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0f s  (%s)\n", r.Workload, r.Seed, r.Seconds, kind)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		if len(v.Slices) > 1 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s  q1 %.4f  q3 %.4f  (%d slices)\n", name, v.Value, v.Unit, v.Q1, v.Q3, len(v.Slices))
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, v.Value, v.Unit)
		}
	}
	hostNames := make([]string, 0, len(r.HostTime))
	for name := range r.HostTime {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)
	for _, name := range hostNames {
		v := r.HostTime[name]
		fmt.Fprintf(w, "  in host time: %-22s %14.4f %-6s  q1 %.4f  q3 %.4f\n", name, v.Value, v.Unit, v.Q1, v.Q3)
	}
	for _, c := range r.Checks {
		if c.OK {
			fmt.Fprintf(w, "  check %-40s ok\n", c.Name)
		} else {
			fmt.Fprintf(w, "  check %-40s FAILED: %s\n", c.Name, c.Detail)
		}
	}
	if r.ResultSHA256 != "" {
		fmt.Fprintf(w, "  result_sha256 %s\n", r.ResultSHA256)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_frac %.6f  correct %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
}

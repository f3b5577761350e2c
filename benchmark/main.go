// Command benchmark is the repository's benchmark of record: four named
// workloads, the end-to-end metrics a user of the system sees, and a
// per-layer ledger measured from outside the program. README.md in this
// directory says what every number means and why each workload exists;
// BENCHMARK.json at the root of the repository is the contract the
// driver checks it against.
//
//	bash benchmark/run.sh --workload sim-hotpath --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out benchmark/out
//	bash benchmark/run.sh -compare benchmark/out/a benchmark/out/b
//	bash benchmark/run.sh -smoke
//
// Run it from the root of the repository: the golden file it checks the
// simulator against lives there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSeconds is how long one run of record measures; BENCHMARK.json
// says the same.
const runSeconds = 20

// workloadSpec is one named workload.
type workloadSpec struct {
	Name string
	Why  string
	// run is the run of record: tracing off, fills every end-to-end
	// metric.
	run func(*runCtx) error
	// layers is the layer run: a shortened traced re-run plus the
	// probes of the layers this workload exercises.
	layers func(*runCtx) error
}

var workloads = []workloadSpec{
	{
		Name:   "sim-hotpath",
		Why:    "One small NetClone simulation run over and over: simnet, simcluster, dataplane, workload and stats do all the work, harness and udpemu none.",
		run:    runSimHotPath,
		layers: layersSimHotPath,
	},
	{
		Name:   "sim-fabric-sharded",
		Why:    "An 8-rack fabric on the sharded core at min(nproc,4) shards: the only place the parallel-in-time machinery's cost or benefit shows.",
		run:    runSimSharded,
		layers: layersSimSharded,
	},
	{
		Name:   "suite-quick",
		Why:    "Every experiment of the paper through the harness at the golden fidelity: per-point construction, reduce and render carry weight here only.",
		run:    runSuiteQuick,
		layers: layersSuiteQuick,
	},
	{
		Name:   "emu-loopback",
		Why:    "A real-socket NetClone cluster on loopback under a closed loop at window 2 (latency) and window 64 (saturation): udpemu, wire, kvstore under the kernel.",
		run:    runEmuLoopback,
		layers: layersEmuLoopback,
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: run of record, end-to-end metrics; 1: layer run, per-layer metrics and a span file")
		out      = flag.String("out", "benchmark/out", "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A B")
		smoke    = flag.Bool("smoke", false, "every workload at a twentieth of its length, no golden sweep, no layer run")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A B   (two results.json files or the directories holding them)")
			return 2
		}
		return compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *smoke && *workload == "":
		return runAll(*seed, 1, *out, true)
	case *workload == "all":
		return runAll(*seed, *seconds, *out, *smoke)
	case *workload == "":
		flag.Usage()
		return 2
	}

	spec, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(spec, *seed, *seconds, *trace == 1, *smoke, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.Name, err)
		return 1
	}
	res.print(os.Stdout)
	fmt.Println(res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runWorkload executes one run of one workload in this process and
// writes its files under out.
func runWorkload(spec workloadSpec, seed uint64, seconds float64, traced, smoke bool, out string) (*result, error) {
	res := &result{
		Workload: spec.Name,
		Seed:     seed,
		Seconds:  seconds,
		Trace:    traced,
		Env:      currentEnvironment(),
		Metrics:  map[string]value{},
		Detail:   map[string]float64{},
	}
	c := &runCtx{seed: seed, seconds: seconds, scale: 1, golden: !traced && !smoke, res: res}
	if smoke {
		c.scale = 1.0 / 20
	}
	var err error
	if traced {
		c.rec = newRecorder()
		err = layerRun(c, spec)
	} else {
		c.ref = newHostRef()
		err = spec.run(c)
	}
	if err != nil {
		return nil, err
	}
	res.finish()

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(resultPath(out, spec.Name, traced), res); err != nil {
		return nil, err
	}
	if traced {
		if err := c.rec.write(filepath.Join(out, "trace-"+spec.Name+".json"), spec.Name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resultPath names a run's result file.
func resultPath(out, workload string, traced bool) string {
	if traced {
		return filepath.Join(out, workload+".layers.json")
	}
	return filepath.Join(out, workload+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is what -workload all writes and -compare reads: every
// workload's run of record and, when one was made, its layer run.
type resultSet struct {
	Schema    int                    `json:"schema"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]*setEntries `json:"workloads"`
}

type setEntries struct {
	EndToEnd *result `json:"end_to_end"`
	Layers   *result `json:"layers,omitempty"`
}

// runAll runs every workload, each in a process of its own so that
// each starts with a fresh heap and fresh sockets exactly as the driver
// runs it: first the run of record, then (unless smoke) the layer run.
// It gathers the children's result files into out/results.json.
func runAll(seed uint64, seconds float64, out string, smoke bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	set := resultSet{Schema: 1, Seed: seed, Seconds: seconds, Workloads: map[string]*setEntries{}}
	status := 0
	for _, w := range workloads {
		entries := &setEntries{}
		set.Workloads[w.Name] = entries
		for trace := 0; trace <= 1; trace++ {
			traced := trace == 1
			if traced && smoke {
				continue
			}
			args := []string{
				"-workload", w.Name,
				"-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-out", out,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			// A child that dies must not leave an older run's file to
			// be read as its own.
			if err := os.Remove(resultPath(out, w.Name, traced)); err != nil && !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %v): %v\n", w.Name, traced, err)
				status = 1
			}
			var res result
			if err := readJSON(resultPath(out, w.Name, traced), &res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				status = 1
				continue
			}
			if traced {
				entries.Layers = &res
			} else {
				entries.EndToEnd = &res
			}
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), set); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", filepath.Join(out, "results.json"))
	return status
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

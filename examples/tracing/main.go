// Tracing example: the flight recorder on an incast workload.
//
// Arms the simulator's flight recorder (WithTrace) on the congestion
// example's incast scenario, records every request's lifecycle — issue,
// clone fan-out, port enqueues with ECN marks, service, the filter
// race, completion — and writes the capture as Chrome trace-event JSON.
// Open the file at https://ui.perfetto.dev (or chrome://tracing): one
// track per rack, a nested flight/service span pair per request copy,
// instants for marks and drops.
//
// The recorder is strictly observational — the same run with tracing
// off produces byte-identical results — and storage-bounded: records
// land in a preallocated ring, oldest-first overwrite.
//
//	go run ./examples/tracing [-quick] [-o trace.json] [-rate N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"netclone"
)

func main() {
	quick := flag.Bool("quick", false, "reduced fidelity (CI smoke): 10x shorter window")
	out := flag.String("o", "", "trace output path (default: netclone-incast-trace.json in the temp dir; .csv writes the flat dump)")
	rate := flag.Int("rate", 1, "record every Nth request per client")
	flag.Parse()
	window := 100 * time.Millisecond
	if *quick {
		window = 10 * time.Millisecond
	}
	if *out == "" {
		*out = filepath.Join(os.TempDir(), "netclone-incast-trace.json")
	}

	// The congestion example's incast: 2.5 Gbps edge links whose two
	// client down-ports saturate, so queues mark and clones race.
	sc := netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithServers(6, 16),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithCongestion(netclone.NewCongestion().WithLinkRate(2.5)),
		netclone.WithOfferedLoad(1.2e6),
		netclone.WithWindow(20*time.Millisecond, window),
		netclone.WithSeed(7),
		netclone.WithTrace(*rate, 1<<17),
	)
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	res, err := netclone.Sim().Run(sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Flight recorder on the incast scenario (NetClone, 2.5 Gbps edge)")
	fmt.Printf("completed %d/%d requests, p99 %.1fus\n\n",
		res.Completed, res.Generated, float64(res.Latency.P99)/1e3)

	d := res.Trace
	kinds := map[string]int{}
	cloned := map[uint64]bool{}
	marked := map[uint64]bool{}
	for _, e := range d.Events {
		kinds[e.Kind.String()]++
		key := uint64(e.Client)<<32 | uint64(e.Seq)
		switch e.Kind.String() {
		case "clone":
			cloned[key] = true
		case "mark":
			marked[key] = true
		}
	}
	fmt.Printf("recorded %d events (rate 1/%d, %d overwritten by the ring):\n",
		len(d.Events), d.Rate, d.Dropped)
	for _, k := range []string{
		"issue", "clone", "dispatch", "port-enqueue", "mark", "port-drop",
		"clone-drop", "server-arrive", "server-start", "server-finish", "filter-drop",
		"win", "complete", "redundant",
	} {
		if kinds[k] > 0 {
			fmt.Printf("  %-14s %8d\n", k, kinds[k])
		}
	}
	both := 0
	for k := range cloned {
		if marked[k] {
			both++
		}
	}
	fmt.Printf("\n%d traced requests were cloned; %d of those crossed an ECN-marking queue.\n",
		len(cloned), both)

	tel := res.Telemetry
	fmt.Printf("engine: %d events in %d bursts (max burst %d), %d occupancy samples\n",
		tel.Events, tel.Bursts, tel.MaxBurst, len(tel.Engine))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if filepath.Ext(*out) == ".csv" {
		err = netclone.WriteTraceCSV(f, d)
	} else {
		err = netclone.WriteChromeTrace(f, d)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s — load it at https://ui.perfetto.dev\n", *out)
	fmt.Println("(each rack is a track; cloned requests show two nested flight/service pairs)")
	fmt.Println()
	fmt.Println("The bench CLI records the same way across whole experiments:")
	fmt.Println("  go run ./cmd/netclone-bench -run cong-incast -quick -trace incast.json -trace-rate 1")
}

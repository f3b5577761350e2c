// Multi-rack deployment example (§3.7).
//
// Places the six worker servers behind their own ToR switch, reached
// from the clients' rack through an aggregation layer — a one-option
// change to the base Scenario: WithRacks with an empty client rack in
// front of one rack holding every server. Both ToRs run the full
// NetClone program; the switch-ID ownership rule makes the client-side
// ToR do all cloning, filtering, and state tracking while the
// server-side ToR passes stamped packets through. The example also
// traces every 10th request per client with the flight recorder
// (WithTrace) and prints the latency breakdown reduced from its
// records (Result.Trace.Breakdown), showing that the aggregation layer
// adds only fixed path cost — the tail is still queueing and service
// variability, which cloning masks.
//
//	go run ./examples/multirack [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"netclone"
)

func main() {
	quick := flag.Bool("quick", false, "reduced fidelity (CI smoke): 10x shorter windows")
	flag.Parse()
	warmup, window := 50*time.Millisecond, 200*time.Millisecond
	if *quick {
		warmup, window = 5*time.Millisecond, 20*time.Millisecond
	}

	base := netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithServers(6, 16),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(1e6),
		netclone.WithWindow(warmup, window),
		netclone.WithSeed(4),
		// A ring large enough that no record is overwritten.
		netclone.WithTrace(10, 1<<19),
	)

	fmt.Println("Multi-rack NetClone: clients and servers on different racks")
	fmt.Printf("%-22s %10s %10s %10s %14s\n", "configuration", "p50(us)", "p99(us)", "cloned", "remote PassL3")

	sim := netclone.Sim()
	for _, v := range []struct {
		label string
		sc    *netclone.Scenario
	}{
		{"single rack", base},
		// Default uplinks: 1us each way per rack, 2us across the fabric.
		{"multi-rack (2us agg)", base.With(netclone.WithRacks(netclone.Rack{}, netclone.HomRack(6, 16, 0)))},
	} {
		res, err := sim.Run(v.sc)
		if err != nil {
			log.Fatal(err)
		}
		// Racks is nil for a single rack; Racks[1] is the servers' ToR.
		var remote netclone.RackStats
		if len(res.Racks) > 1 {
			remote = res.Racks[1]
		}
		fmt.Printf("%-22s %10.1f %10.1f %10d %14d\n",
			v.label,
			float64(res.Latency.P50)/1e3, float64(res.Latency.P99)/1e3,
			res.Switch.Cloned, remote.Switch.PassL3)
		if remote.Switch.Cloned != 0 {
			log.Fatal("ownership rule violated: server-side ToR cloned packets")
		}
		b := res.Trace.Breakdown()
		fmt.Printf("    breakdown: queueWait p99 %.1fus, service p99 %.1fus, path p99 %.1fus, clone wins %d/%d (%d records overwritten)\n",
			float64(b.QueueWait.P99)/1e3, float64(b.Service.P99)/1e3,
			float64(b.Path.P99)/1e3, b.WonByClone, b.Sampled, res.Trace.Dropped)
	}

	fmt.Println()
	fmt.Println("The server-side ToR saw every packet (PassL3) but cloned none: the")
	fmt.Println("switch-ID field confines NetClone processing to the clients' ToR, so")
	fmt.Println("aggregation switches need no NetClone awareness (§3.7).")
}

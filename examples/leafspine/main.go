// Leaf–spine fabric example (§3.7 generalized).
//
// Declares a four-rack fabric with the topology layer: the clients
// share rack 0 with two servers, and three more racks of servers sit
// behind heterogeneous spine uplinks — servers on both sides of the
// fabric, unlike the paper's two-ToR deployment. Every ToR runs the
// full NetClone program; the switch-ID ownership rule confines
// cloning, filtering, and state tracking to the clients' ToR, which
// the per-rack counter rollup (Result.Racks) makes directly visible.
//
//	go run ./examples/leafspine [-quick]
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
		netclone.WithRacks(
			netclone.HomRack(2, 16, 0),                                    // rack 0: the clients' rack
			netclone.HomRack(2, 16, 500*time.Nanosecond),                  // rack 1: fast spine port
			netclone.HomRack(2, 16, 2*time.Microsecond),                   // rack 2: slow spine port
			netclone.Rack{Servers: []int{8, 8}, Uplink: time.Microsecond}, // rack 3: small servers
		),
		netclone.WithPlacement(0),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(1.2e6),
		netclone.WithWindow(warmup, window),
		netclone.WithSeed(4),
	)

	fmt.Printf("Leaf-spine NetClone: 4 racks, heterogeneous uplinks, clients on rack 0\n")
	sim := netclone.Sim()
	for _, scheme := range []netclone.Scheme{netclone.Baseline, netclone.NetClone} {
		res, err := sim.Run(base.With(netclone.WithScheme(scheme)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%-10s p50 %6.1fus  p99 %6.1fus  cloned %d  filtered %d\n",
			scheme, float64(res.Latency.P50)/1e3, float64(res.Latency.P99)/1e3,
			res.Switch.Cloned, res.Switch.FilterDrops)
		fmt.Printf("  %-12s %8s %10s %10s %12s %12s\n",
			"rack", "servers", "cloned", "requests", "passL3", "cloneDrops")
		for _, rs := range res.Racks {
			role := ""
			if rs.Rack == 0 {
				role = " (clients)"
			}
			fmt.Printf("  %-12s %8d %10d %10d %12d %12d\n",
				fmt.Sprintf("%d%s", rs.Rack, role), rs.Servers,
				rs.Switch.Cloned, rs.Switch.Requests, rs.Switch.PassL3, rs.CloneDropsAtServer)
			if rs.Rack != 0 && (rs.Switch.Cloned != 0 || rs.Switch.Requests != 0) {
				log.Fatal("ownership rule violated: a non-client ToR ran NetClone processing")
			}
		}
	}

	fmt.Println()
	fmt.Println("Only rack 0's ToR cloned or sequenced requests; every other ToR just")
	fmt.Println("passed stamped packets through (PassL3), whatever its uplink latency —")
	fmt.Println("the switch-ID ownership rule needs no NetClone awareness in the spine (§3.7).")
}

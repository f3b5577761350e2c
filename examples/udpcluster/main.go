// One scenario, two backends: the NetClone data plane simulated and
// over real sockets.
//
// Declares a single key-value Scenario — three 4-thread servers, a
// read-mostly Zipf mix, a modest open-loop rate — and runs it unchanged
// on both execution backends:
//
//  1. Sim: the deterministic discrete-event simulator behind every
//     paper figure;
//
//  2. Emu: an in-process loopback cluster (switch emulator, UDP worker
//     servers, measuring clients) exercising the identical dataplane
//     pipeline and wire format over the kernel network stack.
//
// The unified result counters line up column for column, so the table
// shows the protocol behaving the same way in both executable models:
// most requests cloned, slower twins filtered in the switch, (almost) no
// redundant responses reaching the clients. Absolute latencies differ —
// loopback RTT and kernel scheduling noise dwarf the simulated
// microsecond effects — which is exactly why the paper figures come
// from Sim and the protocol proof from Emu.
//
//	go run ./examples/udpcluster [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"netclone"
)

func main() {
	quick := flag.Bool("quick", false, "reduced fidelity (CI smoke): a short send window")
	flag.Parse()
	window := 2 * time.Second
	if *quick {
		window = 300 * time.Millisecond
	}

	sc := netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithTopology(4, 4, 4),
		netclone.WithClients(1),
		netclone.WithKVWorkload(netclone.NewKVMix(0.99, 0.01, 50_000, 0.99), netclone.RedisModel()),
		netclone.WithOfferedLoad(2000),
		netclone.WithWindow(0, window),
		netclone.WithSeed(7),
	)
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("One scenario, two backends: 3x4-thread servers, read-mostly KV mix, 2000 req/s")
	fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s %10s\n",
		"backend", "completed", "tput(rps)", "p99", "cloned", "filtered", "cloneDrop", "redundant")

	for _, be := range []netclone.Backend{netclone.Sim(), netclone.Emu()} {
		res, err := be.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10d %10.0f %9.0fus %10d %10d %10d %10d\n",
			res.Backend, res.Completed, res.ThroughputRPS,
			float64(res.Latency.P99)/1e3,
			res.Switch.Cloned, res.Switch.FilterDrops,
			res.CloneDropsAtServer, res.RedundantAtClient)
	}

	fmt.Println()
	fmt.Println("Same wire format, same dataplane code, two substrates: the switch")
	fmt.Println("cloned idle-pair requests and filtered the slower responses in both")
	fmt.Println("models. Distributed deployments use the same pieces as separate")
	fmt.Println("processes: the switch, server and client roles of cmd/netclone-emu.")
}

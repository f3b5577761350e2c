// Two racks, real sockets, injected chaos: the emu backend's fault
// parity.
//
// Declares one chaos Scenario — two 2-server racks behind a 200us
// uplink, a mid-run server crash/recover, a 20% loss window — and runs
// it unchanged on both backends. The simulator executes the fabric and
// the fault plan on virtual time; the emu backend renders the remote
// rack's fabric as delay lines that hold real datagrams in the switch
// and in the rack's servers, and arms the same fault windows on the
// wall clock (loss at the switch, the crash by muting the server's
// socket). Both backends lose some completions to the chaos and
// neither collapses — the parity the capability matrix in DESIGN.md
// §12 pins.
//
// Only socket-expressible faults run here: a kind the emu backend
// cannot express on real sockets (a service-time slowdown, a switch
// outage) is rejected by name with ErrSimOnly rather than silently
// simulated.
//
//	go run ./examples/emurack [-quick]
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

	// The fault schedule scales with the window: server 0 is down
	// across the middle third, and a 20% loss window covers the start
	// of the second half.
	sc := netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithRacks(
			netclone.Rack{Servers: []int{2, 2}},
			netclone.Rack{Servers: []int{2, 2}, Uplink: 200 * time.Microsecond},
		),
		netclone.WithClients(1),
		netclone.WithWorkload(netclone.Exp(25)),
		netclone.WithOfferedLoad(2000),
		netclone.WithWindow(0, window),
		netclone.WithSeed(13),
		netclone.WithFaultInjections(
			netclone.FaultServerCrash(0, window/3, 2*window/3),
			netclone.FaultLoss(window/2, 3*window/4, 0.2),
		),
	)
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Two-rack chaos on both backends: crash + loss window, 200us uplink")
	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n",
		"backend", "generated", "completed", "frac", "cloned", "redundant")

	for _, be := range []netclone.Backend{netclone.Sim(), netclone.Emu()} {
		res, err := be.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		frac := 0.0
		if res.Generated > 0 {
			frac = float64(res.Completed) / float64(res.Generated)
		}
		fmt.Printf("%-8s %10d %10d %9.0f%% %10d %10d\n",
			res.Backend, res.Generated, res.Completed, 100*frac,
			res.Switch.Cloned, res.RedundantAtClient)
		if res.Completed < res.Generated/2 {
			log.Fatalf("%s: chaos collapsed the run (completed %d of %d)",
				res.Backend, res.Completed, res.Generated)
		}
	}

	fmt.Println()
	fmt.Println("One definition, two substrates: the crash and the loss window cost")
	fmt.Println("both backends some completions without collapsing either. The same")
	fmt.Println("scenario runs through the CLI as netclone-bench -run chaos-2rack")
	fmt.Println("-backend sim|emu.")
}

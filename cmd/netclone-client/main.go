// Command netclone-client issues NetClone key-value requests through a
// switch emulator and reports the latency distribution. It is the
// distributed counterpart of the measuring clients the in-process
// netclone.Emu() backend manages: -rate selects the same open loop,
// -duplicate the same client-side C-Clone duplication, and the
// redundant-response count it prints is what Emu surfaces as
// ScenarioResult.RedundantAtClient.
//
//	netclone-client -switch 127.0.0.1:9000 -groups 2 -n 10000 \
//	    -get 0.99 -scan 0.01 -objects 1000000
//
// -groups must equal n*(n-1) for the switch's n registered servers (the
// client in the paper likewise knows the group count, not the servers).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"netclone/internal/simnet"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

func main() {
	var (
		swAddr  = flag.String("switch", "127.0.0.1:9000", "switch address")
		n       = flag.Int("n", 10_000, "number of requests")
		groups  = flag.Int("groups", 2, "switch group count: n*(n-1) for n servers")
		pGet    = flag.Float64("get", 0.99, "GET fraction")
		pScan   = flag.Float64("scan", 0.01, "SCAN fraction (remainder is SET)")
		objects = flag.Uint64("objects", 1_000_000, "keyspace size")
		zipf    = flag.Float64("zipf", 0.99, "key popularity skew")
		seed    = flag.Uint64("seed", 1, "workload seed")
		tables  = flag.Int("filter-tables", 2, "switch filter-table count for IDX randomization")
		timeout = flag.Duration("timeout", 2*time.Second, "per-request timeout")
		rate    = flag.Float64("rate", 0, "open-loop target rate in req/s (0 = closed loop)")
		dup     = flag.Bool("duplicate", false, "send every request twice (client-side static cloning, the C-Clone baseline; open loop only)")
		ioFlag  = flag.String("io", "auto", "syscall discipline: auto (recvmmsg/sendmmsg bursts where supported), portable (one syscall per packet), batch (require the burst path)")
	)
	id := uint16(1)
	flag.Func("id", "client ID, 0..65535 (default 1)", func(s string) (err error) {
		id, err = wire.ParseID(s)
		return err
	})
	flag.Parse()
	if *dup && *rate <= 0 {
		fatal(fmt.Errorf("-duplicate needs the open loop; add -rate"))
	}

	ioMode, err := udpemu.ParseIOMode(*ioFlag)
	if err != nil {
		fatal(err)
	}
	sw, err := net.ResolveUDPAddr("udp", *swAddr)
	if err != nil {
		fatal(err)
	}
	cl, err := udpemu.NewClient(sw, udpemu.ClientConfig{
		ClientID:     id,
		FilterTables: *tables,
		Timeout:      *timeout,
		Seed:         *seed,
		IO:           ioMode,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	mix := workload.NewKVMix(*pGet, *pScan, *objects, *zipf)

	if *rate > 0 {
		// Open loop (§4.2): generate at the target rate, match responses
		// asynchronously.
		res, err := cl.RunOpenLoop(udpemu.OpenLoopConfig{
			NumGroups:  *groups,
			RatePerSec: *rate,
			Requests:   *n,
			Mix:        mix,
			Duplicate:  *dup,
		})
		if err != nil {
			fatal(err)
		}
		sum := cl.Latency()
		fmt.Printf("open loop: sent %d, completed %d in %v (%.0f req/s achieved)\n",
			res.Sent, res.Completed, res.Elapsed.Round(time.Millisecond), res.AchievedRPS)
		fmt.Printf("latency %s\n", sum)
		fmt.Printf("redundant responses seen: %d\n", cl.Redundant())
		return
	}

	rng := simnet.NewRNG(*seed, 77)
	val := make([]byte, 64)

	start := time.Now()
	failures := 0
	for i := 0; i < *n; i++ {
		op, rank := mix.Next(rng)
		var err error
		switch op {
		case workload.OpGet:
			_, err = cl.Do(*groups, op, rank, 0, nil)
		case workload.OpScan:
			_, err = cl.Do(*groups, op, rank, workload.ScanSpan, nil)
		case workload.OpSet:
			_, err = cl.Do(*groups, op, rank, 0, val)
		}
		if err != nil {
			failures++
			if failures > *n/10 {
				fatal(fmt.Errorf("too many failures (%d), last: %w", failures, err))
			}
		}
	}
	elapsed := time.Since(start)

	sum := cl.Latency()
	fmt.Printf("completed %d/%d in %v (%.0f req/s)\n",
		sum.Count, *n, elapsed.Round(time.Millisecond),
		float64(sum.Count)/elapsed.Seconds())
	fmt.Printf("latency %s\n", sum)
	fmt.Printf("redundant responses seen: %d\n", cl.Redundant())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netclone-client:", err)
	os.Exit(1)
}

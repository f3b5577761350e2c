// Command netclone-server runs one NetClone worker server over UDP: one
// loop serving a FCFS queue over a modeled worker pool, backed by the
// in-memory key-value store, with queue-state piggybacking and the
// cloned-request drop guard (§3.4, §4.2). It is the distributed
// counterpart of the servers the in-process netclone.Emu() backend
// manages; the processed/cloneDrops counters it prints on exit are the
// same ones Emu surfaces as ScenarioResult.ServerProcessed and
// ScenarioResult.CloneDropsAtServer.
//
//	netclone-server -listen 127.0.0.1:9101 -switch 127.0.0.1:9000 -sid 0
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"netclone/internal/kvstore"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9101", "server UDP listen address")
		swAddr  = flag.String("switch", "127.0.0.1:9000", "switch address")
		workers = flag.Int("workers", 8, "service slots the server models: requests in service at once (paper: 8-16 worker threads)")
		objects = flag.Int("objects", kvstore.DefaultObjects, "key-value store size")
		extra   = flag.Duration("extra-service", 0, "service time per request on its slot")
		ioFlag  = flag.String("io", "auto", "syscall discipline: auto (recvmmsg/sendmmsg bursts where supported), portable (one syscall per packet), batch (require the burst path)")
	)
	var sid uint16
	flag.Func("sid", "NetClone server ID, 0..65535 (default 0)", func(s string) (err error) {
		sid, err = wire.ParseID(s)
		return err
	})
	flag.Parse()

	ioMode, err := udpemu.ParseIOMode(*ioFlag)
	if err != nil {
		fatal(err)
	}
	sw, err := net.ResolveUDPAddr("udp", *swAddr)
	if err != nil {
		fatal(err)
	}
	srv, err := udpemu.NewServer(*listen, sw, udpemu.ServerConfig{
		SID:              sid,
		Workers:          *workers,
		Store:            kvstore.NewStore(*objects),
		ExtraServiceTime: *extra,
		IO:               ioMode,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("netclone-server sid=%d on %s -> switch %s (%d workers, %d objects, io=%s)\n",
		sid, srv.Addr(), sw, *workers, *objects, ioMode)

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		srv.Close()
		err = <-done // Serve returns once no response is held
	case err = <-done:
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("processed=%d cloneDrops=%d\n", srv.Processed(), srv.CloneDrops())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netclone-server:", err)
	os.Exit(1)
}

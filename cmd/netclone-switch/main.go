// Command netclone-switch runs the NetClone ToR switch emulator over UDP:
// the in-switch request cloning, response filtering, and state tracking
// of the paper, applied to real datagrams. It is the distributed
// (multi-process) counterpart of the in-process netclone.Emu() backend
// and shares its scheme-to-dataplane mapping, so `-scheme` here selects
// exactly the switch program the Emu backend would run.
//
// Workers are registered statically:
//
//	netclone-switch -listen 127.0.0.1:9000 -scheme netclone \
//	    -server 0=127.0.0.1:9101 -server 1=127.0.0.1:9102
//
// Pair it with netclone-server and netclone-client.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
)

// serverFlags collects repeated -server sid=host:port flags.
type serverFlags map[uint16]string

func (f serverFlags) String() string { return fmt.Sprint(map[uint16]string(f)) }

func (f serverFlags) Set(v string) error {
	sid, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want sid=host:port, got %q", v)
	}
	id, err := wire.ParseID(sid)
	if err != nil {
		return err
	}
	f[id] = addr
	return nil
}

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:9000", "switch UDP listen address")
		schemeName   = flag.String("scheme", "netclone", "switch program by scheme: baseline, cclone, netclone, netclone-nofilter, netclone-racksched")
		filterTables = flag.Int("filter-tables", 2, "number of response filter tables")
		filterSlots  = flag.Int("filter-slots", 1<<17, "hash slots per filter table (power of two)")
		maxServers   = flag.Int("max-servers", 64, "server ID space (table capacity)")
		ioFlag       = flag.String("io", "auto", "syscall discipline: auto (recvmmsg/sendmmsg bursts where supported), portable (one syscall per packet), batch (require the burst path)")
	)
	var switchID uint16
	flag.Func("switch-id", "multi-rack switch ID, 0..65535 (default 0 = single rack)", func(s string) (err error) {
		switchID, err = wire.ParseID(s)
		return err
	})
	servers := serverFlags{}
	flag.Var(servers, "server", "worker registration sid=host:port (repeatable)")
	flag.Parse()

	// -scheme routes through the same mapping the in-process Emu backend
	// uses.
	scheme, err := parseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	cfg, err := scenario.SwitchConfig(scheme, *filterTables, *filterSlots, *maxServers)
	if err != nil {
		fatal(err)
	}
	cfg.SwitchID = switchID
	ioMode, err := udpemu.ParseIOMode(*ioFlag)
	if err != nil {
		fatal(err)
	}
	sw, err := udpemu.NewSwitch(*listen, cfg, ioMode)
	if err != nil {
		fatal(err)
	}
	routes := make([]udpemu.ServerRoute, 0, len(servers))
	for sid, addr := range servers {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			fatal(fmt.Errorf("server %d: %w", sid, err))
		}
		routes = append(routes, udpemu.ServerRoute{SID: sid, Addr: udpAddr})
	}
	if err := sw.InstallServers(routes); err != nil {
		fatal(err)
	}

	fmt.Printf("netclone-switch listening on %s (%d servers, %d groups, cloning=%v filtering=%v racksched=%v, io=%s batched=%v)\n",
		sw.Addr(), len(servers), sw.NumGroups(), cfg.EnableCloning, cfg.EnableFiltering, cfg.RackSched, ioMode, sw.Batched())

	done := make(chan error, 1)
	go func() { done <- sw.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	sw.Close()
	st := sw.Stats()
	fmt.Printf("requests=%d cloned=%d recirculated=%d responses=%d filtered=%d\n",
		st.Requests, st.Cloned, st.Recirculated, st.Responses, st.FilterDrops)
}

// parseScheme resolves the -scheme mnemonic to a Scheme with an
// emulated switch role.
func parseScheme(name string) (simcluster.Scheme, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return simcluster.Baseline, nil
	case "cclone", "c-clone":
		return simcluster.CClone, nil
	case "netclone":
		return simcluster.NetClone, nil
	case "netclone-nofilter", "nofilter":
		return simcluster.NetCloneNoFilter, nil
	case "netclone-racksched", "racksched":
		return simcluster.NetCloneRackSched, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want baseline, cclone, netclone, netclone-nofilter, or netclone-racksched)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netclone-switch:", err)
	os.Exit(1)
}

// Command netclone-emu runs one role of the distributed (multi-process)
// NetClone emulation over UDP, the counterpart of the in-process
// netclone.Emu() backend:
//
//	netclone-emu switch -listen 127.0.0.1:9000 -server 0=127.0.0.1:9101 -server 1=127.0.0.1:9102
//	netclone-emu server -listen 127.0.0.1:9101 -switch 127.0.0.1:9000 -id 0
//	netclone-emu client -switch 127.0.0.1:9000 -groups 2 -n 10000 -rate 4000
//
// The switch runs the Emu backend's switch program for -scheme; a client
// knows only the switch's group count, n*(n-1) for n servers, as in the
// paper (§4). Each role accepts only the flags it reads.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netclone/internal/kvstore"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/simnet"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal ends a run that does not watch ctx
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netclone-emu:", err)
		os.Exit(1)
	}
}

// options holds the flags more than one role reads. Each is declared
// once, in declare, and a role registers only the ones it names.
type options struct {
	listen  string
	sw      *net.UDPAddr
	tables  int
	objects uint64
	id      uint16
	mode    udpemu.IOMode
}

// A role registers its flags on fs and returns what runs once they are
// parsed. That part checks its flags before it binds a socket.
type role func(fs *flag.FlagSet, o *options) func(ctx context.Context, stdout io.Writer) error

var roles = map[string]role{"switch": switchRole, "server": serverRole, "client": clientRole}

// run parses args, a role followed by its flags, and runs that role
// until it finishes or ctx ends.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New("want a role: switch, server or client")
	}
	r := roles[args[0]]
	if r == nil {
		return fmt.Errorf("unknown role %q (want switch, server or client)", args[0])
	}
	fs := flag.NewFlagSet("netclone-emu "+args[0], flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	fs.Func("io", "syscall discipline: auto (recvmmsg/sendmmsg bursts where supported), portable (one syscall per packet), batch (require the burst path) (default auto)", func(s string) (err error) {
		o.mode, err = udpemu.ParseIOMode(s)
		return err
	})
	start := r(fs, &o)
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stdout)
		fs.PrintDefaults()
		return nil
	} else if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return start(ctx, stdout)
}

// declare registers the named shared flags. -listen and -id take their
// defaults from o, which the role sets first; -switch is resolved as it
// is parsed.
func (o *options) declare(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "listen":
			fs.StringVar(&o.listen, "listen", o.listen, "UDP listen address")
		case "switch":
			o.sw = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}
			fs.Func("switch", "switch address (default 127.0.0.1:9000)", func(s string) (err error) {
				o.sw, err = net.ResolveUDPAddr("udp", s)
				return err
			})
		case "filter-tables":
			fs.IntVar(&o.tables, "filter-tables", 2, "response filter tables; a client must match its switch")
		case "objects":
			fs.Uint64Var(&o.objects, "objects", kvstore.DefaultObjects, "key-value store size (server) and keyspace (client)")
		case "id":
			fs.Func("id", fmt.Sprintf("node ID, 0..65535 (default %d)", o.id), func(s string) (err error) {
				o.id, err = wire.ParseID(s)
				return err
			})
		}
	}
}

// serverFlags collects repeated -server sid=host:port flags.
type serverFlags map[uint16]*net.UDPAddr

func (f serverFlags) String() string { return fmt.Sprint(map[uint16]*net.UDPAddr(f)) }

func (f serverFlags) Set(v string) error {
	sid, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want sid=host:port, got %q", v)
	}
	id, err := wire.ParseID(sid)
	if err != nil {
		return err
	}
	if id == math.MaxUint16 {
		return fmt.Errorf("SID %d would make the switch's server ID space %d, past %d", id, id+1, math.MaxUint16)
	}
	f[id], err = net.ResolveUDPAddr("udp", addr)
	return err
}

// schemes maps -scheme names to the schemes with an emulated switch role.
var schemes = map[string]simcluster.Scheme{
	"baseline": simcluster.Baseline, "cclone": simcluster.CClone, "c-clone": simcluster.CClone,
	"netclone": simcluster.NetClone, "netclone-nofilter": simcluster.NetCloneNoFilter, "nofilter": simcluster.NetCloneNoFilter,
	"netclone-racksched": simcluster.NetCloneRackSched, "racksched": simcluster.NetCloneRackSched,
}

// switchRole runs the switch until ctx ends. Its server ID space is the
// Emu backend's, max(2, highest registered SID + 1).
func switchRole(fs *flag.FlagSet, o *options) func(context.Context, io.Writer) error {
	o.listen = "127.0.0.1:9000"
	o.declare(fs, "listen", "filter-tables")
	schemeName := fs.String("scheme", "netclone", "switch program by scheme: baseline, cclone, netclone, netclone-nofilter, netclone-racksched")
	slots := fs.Int("filter-slots", 1<<17, "hash slots per filter table (power of two)")
	servers := serverFlags{}
	fs.Var(servers, "server", "worker registration sid=host:port (repeatable)")
	return func(ctx context.Context, stdout io.Writer) error {
		scheme, ok := schemes[strings.ToLower(*schemeName)]
		if !ok {
			return fmt.Errorf("-scheme: unknown scheme %q (want baseline, cclone, netclone, netclone-nofilter, or netclone-racksched)", *schemeName)
		}
		space := 2
		routes := make([]udpemu.ServerRoute, 0, len(servers))
		for sid, addr := range servers {
			space = max(space, int(sid)+1)
			routes = append(routes, udpemu.ServerRoute{SID: sid, Addr: addr})
		}
		cfg, err := scenario.SwitchConfig(scheme, o.tables, *slots, space)
		if err != nil {
			return err
		}
		sw, err := udpemu.NewSwitch(o.listen, cfg, o.mode)
		if err != nil {
			return err
		}
		if err := sw.InstallServers(routes); err != nil {
			sw.Close()
			return err
		}
		fmt.Fprintf(stdout, "netclone-emu switch listening on %s (%d servers, %d groups, cloning=%v filtering=%v racksched=%v, io=%s batched=%v)\n",
			sw.Addr(), len(routes), sw.NumGroups(), cfg.EnableCloning, cfg.EnableFiltering, cfg.RackSched, o.mode, sw.Batched())
		err = serve(ctx, sw)
		st := sw.Stats()
		fmt.Fprintf(stdout, "requests=%d cloned=%d recirculated=%d responses=%d filtered=%d groupWraps=%d\n",
			st.Requests, st.Cloned, st.Recirculated, st.Responses, st.FilterDrops, sw.GroupWraps())
		return err
	}
}

// serverRole runs one worker server until ctx ends. The processed and cloneDrops
// counts it prints on exit are what Emu surfaces as
// ScenarioResult.ServerProcessed and ScenarioResult.CloneDropsAtServer.
func serverRole(fs *flag.FlagSet, o *options) func(context.Context, io.Writer) error {
	o.listen, o.id = "127.0.0.1:9101", 0
	o.declare(fs, "listen", "switch", "objects", "id")
	workers := fs.Int("workers", 8, "service slots the server models: requests in service at once (paper: 8-16 worker threads)")
	extra := fs.Duration("extra-service", 0, "service time per request on its slot")
	return func(ctx context.Context, stdout io.Writer) error {
		srv, err := udpemu.NewServer(o.listen, o.sw, udpemu.ServerConfig{
			SID: o.id, Workers: *workers, Store: kvstore.NewStore(int(o.objects)), ExtraServiceTime: *extra, IO: o.mode,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "netclone-emu server id=%d on %s -> switch %s (%d workers, %d objects, io=%s)\n",
			o.id, srv.Addr(), o.sw, *workers, o.objects, o.mode)
		err = serve(ctx, srv)
		fmt.Fprintf(stdout, "processed=%d cloneDrops=%d\n", srv.Processed(), srv.CloneDrops())
		return err
	}
}

// serve runs n until ctx ends or Serve fails, then closes it.
func serve(ctx context.Context, n interface {
	Serve() error
	Close() error
}) error {
	done := make(chan error, 1)
	go func() { done <- n.Serve() }()
	select {
	case <-ctx.Done():
		n.Close()
		return <-done // a server's Serve returns once no response is held
	case err := <-done:
		n.Close()
		return err
	}
}

// clientRole issues key-value requests through the switch and prints
// the latency distribution. -rate selects the open loop and -duplicate
// the client-side C-Clone duplication, as in the Emu backend; the
// redundant-response count is Emu's ScenarioResult.RedundantAtClient.
func clientRole(fs *flag.FlagSet, o *options) func(context.Context, io.Writer) error {
	o.id = 1
	o.declare(fs, "switch", "filter-tables", "objects", "id")
	n := fs.Int("n", 10_000, "number of requests")
	groups := fs.Int("groups", 2, "switch group count: n*(n-1) for n servers")
	pGet := fs.Float64("get", 0.99, "GET fraction")
	pScan := fs.Float64("scan", 0.01, "SCAN fraction (remainder is SET)")
	zipf := fs.Float64("zipf", 0.99, "key popularity skew")
	seed := fs.Uint64("seed", 1, "workload seed")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request timeout")
	rate := fs.Float64("rate", 0, "open-loop target rate in req/s (0 = closed loop)")
	dup := fs.Bool("duplicate", false, "send every request twice (client-side static cloning, the C-Clone baseline; open loop only)")
	return func(ctx context.Context, stdout io.Writer) error {
		if *dup && *rate <= 0 {
			return errors.New("-duplicate needs the open loop; add -rate")
		}
		cl, err := udpemu.NewClient(o.sw, udpemu.ClientConfig{
			ClientID: o.id, FilterTables: o.tables, Timeout: *timeout, Seed: *seed, IO: o.mode,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		mix := workload.NewKVMix(*pGet, *pScan, o.objects, *zipf)

		if *rate > 0 {
			// Open loop (§4.2): generate at the target rate, match
			// responses asynchronously.
			res, err := cl.RunOpenLoop(udpemu.OpenLoopConfig{
				NumGroups: *groups, RatePerSec: *rate, Requests: *n, Mix: mix, Duplicate: *dup,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "open loop: sent %d, completed %d in %v (%.0f req/s achieved)\n",
				res.Sent, res.Completed, res.Elapsed.Round(time.Millisecond), res.AchievedRPS)
		} else {
			rng := simnet.NewRNG(*seed, 77)
			val := make([]byte, 64)
			start := time.Now()
			failures := 0
			for i := 0; i < *n && ctx.Err() == nil; i++ {
				op, rank := mix.Next(rng)
				span, value := uint16(0), []byte(nil)
				if op == workload.OpScan {
					span = workload.ScanSpan
				} else if op == workload.OpSet {
					value = val
				}
				if _, err := cl.Do(*groups, op, rank, span, value); err != nil {
					if failures++; failures > *n/10 {
						return fmt.Errorf("too many failures (%d), last: %w", failures, err)
					}
				}
			}
			elapsed := time.Since(start)
			done := cl.Latency().Count
			fmt.Fprintf(stdout, "completed %d/%d in %v (%.0f req/s)\n",
				done, *n, elapsed.Round(time.Millisecond), float64(done)/elapsed.Seconds())
		}
		fmt.Fprintf(stdout, "latency %s\nredundant responses seen: %d\n", cl.Latency(), cl.Redundant())
		return nil
	}
}

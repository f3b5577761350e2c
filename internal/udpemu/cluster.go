package udpemu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/kvstore"
	"netclone/internal/stats"
)

// RackSpec describes one rack of an emulated multi-rack fabric: its
// servers' worker counts and the one-way fabric delay between its ToR
// and the client rack's ToR (the sum of both uplinks in the topology
// model). The rack with zero delay is the client rack. Every other
// rack's servers see the delay in both directions: the switch holds
// their requests in a rack delay line and each server holds its
// responses in one of its own.
type RackSpec struct {
	Workers []int
	Delay   time.Duration
}

// ClusterConfig describes an in-process loopback cluster: one switch
// emulator, one kvstore-backed worker server per Workers entry, and
// Clients measuring clients — the same lifecycle the switch, server and
// client roles of the netclone-emu binary wire up across processes.
type ClusterConfig struct {
	// Dataplane configures the switch pipeline. MaxServers is raised to
	// fit Workers if it is too small.
	Dataplane dataplane.Config
	// Workers holds each server's service-slot count; its length is
	// the number of servers. Ignored when Racks is set.
	Workers []int
	// Racks, when non-empty, lays the servers out across emulated
	// racks: server IDs run rack by rack in order, matching the
	// topology layer's FlatWorkers numbering. Racks with a positive
	// Delay are reached across that one-way fabric delay.
	Racks []RackSpec
	// Clients is the number of measuring clients (default 1).
	Clients int
	// StoreObjects sizes the shared key-value store (default 1<<16).
	StoreObjects int
	// ExtraServiceTime is every server's service time per request
	// (ServerConfig.ExtraServiceTime): how the emulation applies a
	// synthetic service-time distribution, as its mean.
	ExtraServiceTime time.Duration
	// Timeout bounds each closed-loop request (default 2s).
	Timeout time.Duration
	// Seed derives per-client randomization seeds.
	Seed uint64
	// IO selects the syscall discipline for every component (default
	// IOAuto; DESIGN.md §12).
	IO IOMode
	// Faults schedules the socket-expressible fault kinds — loss
	// windows, server crash/recover — relative to the open-loop start
	// (RunOpenLoop arms the clock).
	Faults *FaultSchedule
}

// Cluster is a running in-process loopback cluster. Create it with
// StartCluster and release its sockets with Close.
type Cluster struct {
	Switch  *Switch
	Servers []*Server
	Clients []*Client
	store   *kvstore.Store

	faults   *faultState
	faultsWG sync.WaitGroup
	stopCh   chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// ClusterCounters snapshots every counter the cluster exposes, keyed to
// the same vocabulary as the simulator's Result.
type ClusterCounters struct {
	// Switch is the data-plane counter snapshot.
	Switch dataplane.Stats
	// Processed sums every server's executed-request count (clones
	// included).
	Processed int64
	// CloneDrops sums the servers' stale-state guard drops (§3.4).
	CloneDrops int64
	// Redundant sums the duplicate responses that reached the clients.
	Redundant int64
	// SendErrors sums failed socket transmissions across the switch,
	// servers, and clients, delay-line overflows included.
	SendErrors int64
	// LossDrops counts packets dropped by active loss windows at the
	// switch.
	LossDrops int64
	// CrashDrops counts the requests servers lost to crash windows
	// (Server.CrashDrops).
	CrashDrops int64
	// QueueDrops counts requests servers discarded because their FCFS
	// queue was full.
	QueueDrops int64
}

// StartCluster binds and starts the whole cluster on loopback. On error
// every partially started component is shut down.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	workers := cfg.Workers
	serverRack := []int(nil)
	if len(cfg.Racks) > 0 {
		workers = workers[:0:0]
		for ri, r := range cfg.Racks {
			workers = append(workers, r.Workers...)
			for range r.Workers {
				serverRack = append(serverRack, ri)
			}
		}
	}
	if len(workers) < 2 {
		return nil, errors.New("udpemu: cluster needs at least two servers")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.StoreObjects <= 0 {
		cfg.StoreObjects = 1 << 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	dcfg := cfg.Dataplane
	if dcfg.MaxServers < len(workers) {
		dcfg.MaxServers = len(workers)
	}

	sw, err := NewSwitch("127.0.0.1:0", dcfg, cfg.IO)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Switch: sw,
		store:  kvstore.NewStore(cfg.StoreObjects),
		stopCh: make(chan struct{}),
	}
	if !cfg.Faults.Empty() {
		c.faults = newFaultState(*cfg.Faults)
		sw.faults = c.faults
	}
	go sw.Serve() //nolint:errcheck // terminated by Close

	routes := make([]ServerRoute, 0, len(workers))
	for sid, threads := range workers {
		var delay time.Duration
		if serverRack != nil {
			delay = cfg.Racks[serverRack[sid]].Delay
		}
		srv, err := NewServer("127.0.0.1:0", sw.Addr(), ServerConfig{
			SID:              uint16(sid),
			Workers:          threads,
			Store:            c.store,
			ExtraServiceTime: cfg.ExtraServiceTime,
			IO:               cfg.IO,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("udpemu: server %d: %w", sid, err)
		}
		c.Servers = append(c.Servers, srv)
		if delay > 0 {
			srv.delayUplink(delay)
		}
		go srv.Serve() //nolint:errcheck
		routes = append(routes, ServerRoute{SID: uint16(sid), Addr: srv.Addr(), Delay: delay})
	}
	if err := sw.InstallServers(routes); err != nil {
		c.Close()
		return nil, fmt.Errorf("udpemu: register servers: %w", err)
	}

	for i := 0; i < cfg.Clients; i++ {
		cl, err := NewClient(sw.Addr(), ClientConfig{
			ClientID:     uint16(i + 1),
			FilterTables: dcfg.FilterTables,
			Timeout:      cfg.Timeout,
			Seed:         cfg.Seed + uint64(i)*7919,
			IO:           cfg.IO,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("udpemu: client %d: %w", i, err)
		}
		c.Clients = append(c.Clients, cl)
	}
	return c, nil
}

// Store returns the shared key-value store backing every server.
func (c *Cluster) Store() *kvstore.Store { return c.store }

// Batched reports whether the cluster's switch runs the batched
// syscall path (servers and clients follow the same resolution).
func (c *Cluster) Batched() bool { return c.Switch.Batched() }

// Counters snapshots the cluster-wide counters. Take it after traffic
// has drained for a consistent view.
func (c *Cluster) Counters() ClusterCounters {
	out := ClusterCounters{Switch: c.Switch.Stats()}
	out.SendErrors = c.Switch.SendErrors()
	out.LossDrops = c.Switch.LossDrops()
	for _, s := range c.Servers {
		out.Processed += s.Processed()
		out.CloneDrops += s.CloneDrops()
		out.CrashDrops += s.CrashDrops()
		out.QueueDrops += s.QueueDrops()
		out.SendErrors += s.SendErrors()
	}
	for _, cl := range c.Clients {
		out.Redundant += cl.Redundant()
		out.SendErrors += cl.SendErrors()
	}
	return out
}

// MergedLatency merges every client's latency histogram into one.
func (c *Cluster) MergedLatency() *stats.Histogram {
	h := stats.NewHistogram()
	for _, cl := range c.Clients {
		h.Merge(cl.Hist())
	}
	return h
}

// RunOpenLoop drives every client concurrently, splitting the target
// rate and request count evenly, and returns the per-client results in
// client order. Starting the loop arms the fault schedule's clock.
func (c *Cluster) RunOpenLoop(cfg OpenLoopConfig) ([]OpenLoopResult, error) {
	n := len(c.Clients)
	if n == 0 {
		return nil, errors.New("udpemu: cluster has no clients")
	}
	per := cfg
	per.NumGroups = c.Switch.NumGroups()
	per.RatePerSec = cfg.RatePerSec / float64(n)
	per.Requests = cfg.Requests / n
	if per.Requests == 0 {
		per.Requests = 1
	}

	c.armFaults(time.Now())

	results := make([]OpenLoopResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, cl := range c.Clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			results[i], errs[i] = cl.RunOpenLoop(per)
		}(i, cl)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// armFaults pins the fault schedule's wall-clock zero and starts the
// crash executor — the goroutine that flips server down-flags at the
// schedule's transitions, emulating faults.ServerCrash on real
// processes. Flips due at or before the zero apply here, before any
// client sends, so a crash window from 0 drops the first request too.
func (c *Cluster) armFaults(start time.Time) {
	if c.faults == nil {
		return
	}
	c.faults.arm(start)
	ts := c.faults.sched.crashTransitions()
	for len(ts) > 0 && ts[0].at <= 0 {
		c.setDown(ts[0])
		ts = ts[1:]
	}
	if len(ts) == 0 {
		return
	}
	c.faultsWG.Add(1)
	go func() {
		defer c.faultsWG.Done()
		for _, t := range ts {
			due := start.Add(t.at)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-c.stopCh:
					return
				}
			}
			c.setDown(t)
		}
	}()
}

// setDown applies one crash transition to its target server, or to
// every server when the target is negative.
func (c *Cluster) setDown(t crashTransition) {
	if t.target < 0 {
		for _, s := range c.Servers {
			s.SetDown(t.down)
		}
	} else if t.target < len(c.Servers) {
		c.Servers[t.target].SetDown(t.down)
	}
}

// Close shuts down clients, servers, and switch, in that
// order. It is idempotent and safe on partially constructed clusters.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		var errs []error
		for _, cl := range c.Clients {
			errs = append(errs, cl.Close())
		}
		for _, s := range c.Servers {
			errs = append(errs, s.Close())
		}
		if c.Switch != nil {
			errs = append(errs, c.Switch.Close())
		}
		c.faultsWG.Wait()
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}

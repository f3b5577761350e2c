package udpemu

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// cloneLaw renders both sides of the emu clone law for a failing
// redundancy assertion. Every clone the switch emits should end as one
// of: a slower twin the switch filtered, a redundant response at a
// client, a stale clone a server dropped, or a datagram the kernel
// dropped. The side that does not balance says where duplicates come
// from. kernelDrops is a host-wide count, so on a busy host it bounds
// the run's own drops from above.
func cloneLaw(sw *Switch, servers []*Server, redundant, kernelDrops int64) string {
	st := sw.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "clone law: switch Cloned=%d FilterDrops=%d FilterOverwrites=%d",
		st.Cloned, st.FilterDrops, st.FilterOverwrites)
	var cloneDrops int64
	for i, s := range servers {
		fmt.Fprintf(&b, "; server %d Processed=%d CloneDrops=%d", i, s.Processed(), s.CloneDrops())
		cloneDrops += s.CloneDrops()
	}
	fmt.Fprintf(&b, "; client Redundant=%d; kernel drops=%d; Cloned - (FilterDrops + Redundant + CloneDrops + kernel drops) = %d",
		redundant, kernelDrops, st.Cloned-(st.FilterDrops+redundant+cloneDrops+kernelDrops))
	return b.String()
}

// settleCloneLaw is the redundancy check of the filtering tests. Slower
// twins may still be in flight when the load stops, so it polls for at
// most 1 s until Cloned − (FilterDrops + Redundant + CloneDrops) falls
// within the kernel drops counted since drops0. Then it requires
// Redundant ≤ FilterOverwrites: filter slots may be overwritten by
// design (§3.5), and a slower twin reaches a client only after a
// counted overwrite removed its fingerprint. The error, if any, carries
// the rendered law.
//
// Redundant is read before the switch counters and the clone drops
// after it, so each counted redundant response already has its
// overwrite in the snapshot.
func settleCloneLaw(sw *Switch, servers []*Server, redundant func() int64, drops0 int64) error {
	deadline := time.Now().Add(time.Second)
	for {
		r := redundant()
		st := sw.Stats()
		var cloneDrops int64
		for _, s := range servers {
			cloneDrops += s.CloneDrops()
		}
		kernelDrops := kernelRcvbufErrors() - drops0
		if st.Cloned-(st.FilterDrops+r+cloneDrops) <= kernelDrops {
			if r > st.FilterOverwrites {
				return fmt.Errorf("%d redundant responses but only %d filter overwrites; %s",
					r, st.FilterOverwrites, cloneLaw(sw, servers, r, kernelDrops))
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("clone law still unbalanced after 1 s; %s", cloneLaw(sw, servers, r, kernelDrops))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kernelRcvbufErrors reads the host's count of UDP datagrams dropped at
// a full socket receive buffer (RcvbufErrors in /proc/net/snmp), or 0
// where that file does not exist.
func kernelRcvbufErrors() int64 {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "Udp:") {
			continue
		}
		fields := strings.Fields(line)
		if names == nil {
			names = fields
			continue
		}
		for i, name := range names {
			if name == "RcvbufErrors" && i < len(fields) {
				n, _ := strconv.ParseInt(fields[i], 10, 64) // unparsable: reported as 0
				return n
			}
		}
	}
	return 0
}

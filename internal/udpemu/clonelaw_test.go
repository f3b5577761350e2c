package udpemu

import (
	"fmt"
	"os"
	"strconv"
	"strings"
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

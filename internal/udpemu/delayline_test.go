package udpemu

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// TestDelayLineAllocatesOnDemand: a new line holds no packet buffers
// (under 64 KiB, against 8.4 MB for delayLineDepth of them), and once
// it has buffers for what it carries at once, forwarding through it
// allocates nothing.
func TestDelayLineAllocatesOnDemand(t *testing.T) {
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	src, dst := listen(), listen()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dl := newDelayLine(src, nil)
	runtime.ReadMemStats(&after)
	defer dl.close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("newDelayLine allocated %d bytes, want < 64 KiB", got)
	}

	to := addrPort(dst.LocalAddr().(*net.UDPAddr))
	pkt := make([]byte, 64)
	rbuf := make([]byte, maxDatagram)
	carry := func(n int, wait time.Duration) {
		due := time.Now().Add(wait)
		for range n {
			dl.enqueue(pkt, to, due, service{})
		}
		for range n {
			if _, _, err := dst.ReadFromUDPAddrPort(rbuf); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up with twice the steady burst in flight at once: the sender
	// may still hold the last buffer of one burst when the next begins.
	const burst = 16
	carry(2*burst, 5*time.Millisecond)
	if allocs := testing.AllocsPerRun(50, func() { carry(burst, 0) }); allocs != 0 {
		t.Errorf("steady forwarding allocates %.2f per burst of %d, want 0", allocs, burst)
	}
	if dl.made != 2*burst || dl.lost() != 0 {
		t.Errorf("line made %d buffers and lost %d packets, want %d and 0", dl.made, dl.lost(), 2*burst)
	}
}

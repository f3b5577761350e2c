package udpemu

import (
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestOpenLoopPacesOnTime judges the open-loop pacer by what it sends.
// A socket the test owns stands in for the switch and keeps the
// kernel's receive timestamp of every request (SO_TIMESTAMPNS), so a
// reader that runs late cannot make a burst of its own. At 16,000
// requests a second the Poisson gaps (mean 62.5 µs) put about 8% of
// the gaps under 5 µs, so about 85% of the requests arrive alone, 5 µs
// or more from both neighbours. A pacer that waits on the runtime timer
// wakes about a millisecond late and sends the ~16 requests it owes
// back to back, so almost none arrive alone. The test wants at least
// 10% alone. On a 2-vCPU Linux host the pacer reads 71-74% idle, 44-61%
// beside two busy-looping processes and 16-48% beside four, whose turns
// on the CPUs delay some of its wakes; the runtime-timer pacer reads
// 2-4% in each of these.
func TestOpenLoopPacesOnTime(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the pacer's sends too much to judge its timing")
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	raw, err := sink.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var optErr error
	if err := raw.Control(func(fd uintptr) {
		optErr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil || optErr != nil {
		t.Fatal("SO_TIMESTAMPNS:", err, optErr)
	}
	arrivals := make(chan []time.Time, 1) // the reader never blocks, even when the test ends early
	go func() {
		var at []time.Time
		buf, oob := make([]byte, 2048), make([]byte, 128)
		for {
			_, oobn, _, _, err := sink.ReadMsgUDP(buf, oob)
			if err != nil {
				break // the deadline set once the run is over
			}
			msgs, _ := syscall.ParseSocketControlMessage(oob[:oobn])
			for _, m := range msgs {
				if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS {
					ts := (*syscall.Timespec)(unsafe.Pointer(&m.Data[0]))
					at = append(at, time.Unix(ts.Unix()))
				}
			}
		}
		arrivals <- at
	}()

	cl, err := NewClient(sink.LocalAddr().(*net.UDPAddr), ClientConfig{ClientID: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const requests = 2000
	if _, err := cl.RunOpenLoop(OpenLoopConfig{
		NumGroups: 2, RatePerSec: 16_000, Requests: requests, Drain: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	sink.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	at := <-arrivals
	if len(at) < requests*9/10 {
		t.Fatalf("the stand-in switch stamped %d of %d requests", len(at), requests)
	}
	alone := 0
	for i := 1; i+1 < len(at); i++ {
		if at[i].Sub(at[i-1]) >= 5*time.Microsecond && at[i+1].Sub(at[i]) >= 5*time.Microsecond {
			alone++
		}
	}
	frac := float64(alone) / float64(len(at)-2)
	t.Logf("%d requests stamped, %.1f%% arrived alone (Poisson: 85%%)", len(at), 100*frac)
	if frac < 0.10 {
		t.Errorf("%.1f%% of the requests arrived 5µs or more from both neighbours, want at least 10%%: the pacer sends in bursts", 100*frac)
	}
}

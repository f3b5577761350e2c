package main

import (
	"bytes"
	"context"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunRejects drives run with flags it must refuse, each with an
// error that names the offending flag or role. The switch and server
// cases listen on a port the test holds, so a role that bound its
// socket before checking its flags would fail on the bind instead, with
// an error that names no flag; the context is already cancelled, so a
// role that accepted its flags returns nil at once.
func TestRunRejects(t *testing.T) {
	held, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	listen := held.LocalAddr().String()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "role"},
		{[]string{"router"}, `"router"`},
		{[]string{"server", "-listen", listen, "-id", "70000"}, "-id"},
		{[]string{"client", "-id", "70000"}, "-id"},
		{[]string{"switch", "-listen", listen, "-server", "70000=127.0.0.1:1"}, "-server"},
		{[]string{"switch", "-listen", listen, "-server", "65535=127.0.0.1:1"}, "-server"},
		{[]string{"switch", "-listen", listen, "-server", "0"}, "-server"},
		{[]string{"switch", "-listen", listen, "-scheme", "laedge"}, "-scheme"},
		{[]string{"switch", "-listen", listen, "-max-servers", "8"}, "-max-servers"},
		{[]string{"switch", "-listen", listen, "-switch-id", "1"}, "-switch-id"},
		{[]string{"switch", "-listen", listen, "-switch", "127.0.0.1:9000"}, "-switch"},
		{[]string{"server", "-listen", listen, "-rate", "5"}, "-rate"},
		{[]string{"server", "-listen", listen, "-sid", "0"}, "-sid"},
		{[]string{"server", "-listen", listen, "-io", "fast"}, "-io"},
		{[]string{"server", "-listen", listen, "extra"}, `"extra"`},
		{[]string{"client", "-listen", listen}, "-listen"},
		{[]string{"client", "-duplicate"}, "-duplicate"},
	} {
		var out bytes.Buffer
		err := run(ctx, tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q = %v; want an error naming %s", tc.args, err, tc.want)
		}
	}
}

// syncBuffer is a bytes.Buffer that one role writes while the test
// reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRolesOverLoopback runs the README recipe in one process: a switch
// and two servers through run on loopback, then a closed-loop client.
// The client must return nil, and once the context ends each server
// must report requests processed and the switch no group wraps.
func TestRolesOverLoopback(t *testing.T) {
	var ports []string
	for range 3 {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ports = append(ports, c.LocalAddr().String())
		c.Close()
	}
	swAddr := ports[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodes := [][]string{
		{"switch", "-io", "auto", "-listen", swAddr, "-server", "0=" + ports[1], "-server", "1=" + ports[2]},
		{"server", "-io", "auto", "-listen", ports[1], "-switch", swAddr, "-id", "0", "-objects", "1000"},
		{"server", "-io", "auto", "-listen", ports[2], "-switch", swAddr, "-id", "1", "-objects", "1000"},
	}
	outs := make([]*syncBuffer, len(nodes))
	errs := make(chan error, len(nodes))
	for i, args := range nodes {
		outs[i] = &syncBuffer{}
		go func() { errs <- run(ctx, args, outs[i]) }()
	}
	for i, out := range outs {
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(out.String(), " on "); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s printed no banner: %q", nodes[i][0], out.String())
			}
		}
	}

	var client bytes.Buffer
	err := run(ctx, []string{"client", "-io", "auto", "-switch", swAddr, "-groups", "2", "-n", "300", "-objects", "1000"}, &client)
	t.Logf("client: %s", client.String())
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	cancel()
	for range nodes {
		if err := <-errs; err != nil {
			t.Errorf("node: %v", err)
		}
	}
	if !strings.Contains(outs[0].String(), "groupWraps=0\n") {
		t.Errorf("switch: %q, want groupWraps=0", outs[0].String())
	}
	processedRE := regexp.MustCompile(`processed=(\d+)`)
	for i, out := range outs[1:] {
		if m := processedRE.FindStringSubmatch(out.String()); m == nil || m[1] == "0" {
			t.Errorf("server %d: %q, want processed > 0", i, out.String())
		}
	}
}

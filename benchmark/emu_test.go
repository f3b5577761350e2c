package main

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netclone/internal/wire"
)

// testEcho is an in-test stand-in for everything behind the generator's
// socket. behave decides, per request, how many responses to send back
// (0 drops it); hold, when positive, keeps requests back until that
// many are waiting, to observe the window from the far side.
type testEcho struct {
	conn     *net.UDPConn
	behave   func(seq uint32) int
	hold     int
	maxHeld  atomic.Int64
	received atomic.Int64
	wg       sync.WaitGroup
}

func startTestEcho(t *testing.T, hold int, behave func(seq uint32) int) *testEcho {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	e := &testEcho{conn: conn, behave: behave, hold: hold}
	e.wg.Add(1)
	go e.serve()
	t.Cleanup(func() {
		conn.Close()
		e.wg.Wait()
	})
	return e
}

type heldRequest struct {
	h    wire.Header
	from *net.UDPAddr
}

func (e *testEcho) serve() {
	defer e.wg.Done()
	buf := make([]byte, 2048)
	var held []heldRequest
	release := func() {
		for _, r := range held {
			e.respond(r.h, r.from)
		}
		held = held[:0]
	}
	for {
		// With requests held back, a quiet socket means the window is
		// full: nothing more will come until something is answered.
		if len(held) > 0 {
			e.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		} else {
			e.conn.SetReadDeadline(time.Time{})
		}
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				release()
				continue
			}
			return
		}
		var h wire.Header
		if _, err := h.Unmarshal(buf[:n]); err != nil || h.Type != wire.TypeReq {
			continue
		}
		e.received.Add(1)
		if e.hold == 0 {
			e.respond(h, from)
			continue
		}
		held = append(held, heldRequest{h, from})
		if int64(len(held)) > e.maxHeld.Load() {
			e.maxHeld.Store(int64(len(held)))
		}
		if len(held) > e.hold {
			release() // the window was exceeded; maxHeld has recorded it
		}
	}
}

func (e *testEcho) respond(h wire.Header, to *net.UDPAddr) {
	h.Type = wire.TypeResp
	var out [wire.HeaderLen]byte
	if _, err := h.MarshalTo(out[:]); err != nil {
		return
	}
	for n := e.behave(h.ClientSeq); n > 0; n-- {
		e.conn.WriteToUDP(out[:], to)
	}
}

func testGenerator(t *testing.T, e *testEcho) *generator {
	t.Helper()
	g, err := newGenerator(1, 1, allSets(), 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.aim(e.conn.LocalAddr().(*net.UDPAddr))
	t.Cleanup(func() { g.close() })
	return g
}

// The far side never sees more than the window in flight: it holds
// every request until the socket goes quiet, and the most it ever holds
// is the window.
func TestGeneratorNeverExceedsItsWindow(t *testing.T) {
	const window = 4
	e := startTestEcho(t, window, func(uint32) int { return 1 })
	g := testGenerator(t, e)
	ph := g.closedLoop(window, 150*time.Millisecond, 3, nil, -1)
	if got := e.maxHeld.Load(); got > window || got < 1 {
		t.Errorf("the far side held %d requests at once, want the window %d and never more", got, window)
	}
	if ph.completed == 0 || ph.completed+ph.failed != ph.sent {
		t.Errorf("sent %d, completed %d, failed %d: every request must be one or the other", ph.sent, ph.completed, ph.failed)
	}
	if int64(e.received.Load()) != ph.sent {
		t.Errorf("the far side received %d requests, the generator counted %d sent", e.received.Load(), ph.sent)
	}
	if len(ph.slices) != 3 || len(ph.lat) != 3 {
		t.Errorf("%d slices and %d latency lists, want 3 of each", len(ph.slices), len(ph.lat))
	}
	var perSlice, timed int64
	for i, s := range ph.slices {
		perSlice += s.requests
		timed += int64(len(ph.lat[i]))
	}
	// What is answered after the last boundary, while the loop drains,
	// is timed but belongs to no slice's rate: one window, and what the sender got out before it saw the stop.
	if timed != ph.completed || perSlice > ph.completed || perSlice < ph.completed-2*window {
		t.Errorf("slices count %d completions and %d latencies, the phase %d", perSlice, timed, ph.completed)
	}
}

// A second response to an answered request is redundant, not a second
// completion, and frees no second window token.
func TestGeneratorCountsOnlyFirstResponses(t *testing.T) {
	e := startTestEcho(t, 0, func(seq uint32) int {
		if seq%4 == 0 {
			return 2
		}
		return 1
	})
	g := testGenerator(t, e)
	ph := g.closedLoop(2, 100*time.Millisecond, 1, nil, -1)
	if ph.failed != 0 || ph.completed != ph.sent {
		t.Fatalf("sent %d, completed %d, failed %d: nothing was dropped", ph.sent, ph.completed, ph.failed)
	}
	// Every fourth sequence number was answered twice. A duplicate that
	// arrives after the phase ended is not counted, so allow the last
	// few to be missing.
	want := (ph.sent + 3) / 4
	if ph.redundant > want || ph.redundant < want-2 {
		t.Errorf("%d redundant responses for %d requests, want about %d", ph.redundant, ph.sent, want)
	}
	if got := int64(len(ph.pooled())); got != ph.completed {
		t.Errorf("%d latencies for %d completions", got, ph.completed)
	}
}

// A request unanswered at the deadline is counted as lost and sent once
// more; unanswered again it has failed and gives its window token back,
// so the loop goes on. A request answered on its second attempt is timed
// from its first.
func TestGeneratorResendsOnceThenFails(t *testing.T) {
	var mu sync.Mutex
	attempts := map[uint32]int{}
	e := startTestEcho(t, 0, func(seq uint32) int {
		mu.Lock()
		defer mu.Unlock()
		attempts[seq]++
		switch {
		case seq == 5 && attempts[seq] == 1: // the first attempt is dropped
			return 0
		case seq == 6: // every attempt is dropped
			return 0
		}
		return 1
	})
	g := testGenerator(t, e)
	ph := g.closedLoop(2, 5*requestDeadline, 1, nil, -1)
	if ph.lost != 2 || ph.failed != 1 {
		t.Errorf("%d lost first attempts and %d failed, want 2 and 1", ph.lost, ph.failed)
	}
	if ph.completed+ph.failed != ph.sent || ph.completed < 8 {
		t.Errorf("sent %d, completed %d, failed %d: the loop must continue past the loss", ph.sent, ph.completed, ph.failed)
	}
	mu.Lock()
	if attempts[5] != 2 || attempts[6] != 2 {
		t.Errorf("request 5 was sent %d times and request 6 %d times, want 2 each", attempts[5], attempts[6])
	}
	mu.Unlock()
	sorted := ph.pooled()
	if worst := time.Duration(sorted[len(sorted)-1]); worst < requestDeadline || worst > 3*requestDeadline {
		t.Errorf("the resent request took %v, want it timed from its first attempt (over %v)", worst, requestDeadline)
	}
}

func TestInitialValueMatchesTheStore(t *testing.T) {
	g, err := newGenerator(1, 1, allSets(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	var want, got [64]byte
	for _, rank := range []uint64{0, 1, 63} {
		initialValue(rank, want[:])
		if n := g.ref.Get(rank, got[:]); n != len(got) || got != want {
			t.Errorf("rank %d: the store holds %x, initialValue says %x", rank, got[:n], want)
		}
	}
}

// refLoop keeps closedLoop's accounting across its slices and gives
// every slice the phase's one host speed; host-time quantiles times that
// speed are the reference-time ones.
func TestRefLoopCarriesOneSpeedPerPhase(t *testing.T) {
	e := startTestEcho(t, 0, func(uint32) int { return 1 })
	g := testGenerator(t, e)
	ph := g.refLoop(newHostRef(), 2, 90*time.Millisecond, 3, nil, -1)
	if len(ph.slices) != 3 || len(ph.lat) != 3 || ph.window != 2 {
		t.Fatalf("%d slices, %d latency lists at window %d, want 3, 3 and 2", len(ph.slices), len(ph.lat), ph.window)
	}
	if ph.completed == 0 || ph.completed+ph.failed != ph.sent || int64(e.received.Load()) != ph.sent {
		t.Errorf("sent %d, completed %d, failed %d, the far side received %d", ph.sent, ph.completed, ph.failed, e.received.Load())
	}
	// Four bursts: before, between and after three slices.
	if want := int64(4 * refBurst * refOps); ph.slices[0].refOps != want {
		t.Errorf("the phase's reference did %d operations, want %d", ph.slices[0].refOps, want)
	}
	for k, s := range ph.slices {
		if s.refOps != ph.slices[0].refOps || s.refWall != ph.slices[0].refWall || s.speed() <= 0 {
			t.Errorf("slice %d carries %d ops in %v, slice 0 %d in %v", k, s.refOps, s.refWall, ph.slices[0].refOps, ph.slices[0].refWall)
		}
	}
	refUS, hostUS := ph.quantilesUS(0.5)
	for k := range refUS {
		if !near(refUS[k], hostUS[k]*ph.slices[k].speed()) {
			t.Errorf("slice %d: %v reference us from %v host us at speed %v", k, refUS[k], hostUS[k], ph.slices[k].speed())
		}
	}

	// Without a reference it is closedLoop: host time.
	ph = g.refLoop(nil, 2, 60*time.Millisecond, 2, nil, -1)
	refUS, hostUS = ph.quantilesUS(0.5)
	if len(ph.slices) != 2 || ph.slices[0].refOps != 0 || refUS[0] != hostUS[0] {
		t.Errorf("without a reference: %d slices, %d reference ops, %v vs %v us", len(ph.slices), ph.slices[0].refOps, refUS[0], hostUS[0])
	}
}

package dataplane

import (
	"math/rand/v2"
	"testing"

	"netclone/internal/wire"
)

// lazyOwnID and lazyForeignID are the switch IDs of the sequence test:
// the switch under test and another ToR of the same fabric.
const (
	lazyOwnID     = 3
	lazyForeignID = 9
)

// newEagerSwitch is newTestSwitch with the tables built before the
// first server is installed, so every install after it writes the
// group table the way a switch without lazy tables does.
func newEagerSwitch(t *testing.T, cfg Config, n int) *Switch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.materialize()
	for i := 0; i < n; i++ {
		if err := s.AddServer(uint16(i), uint32(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// lazyPair drives a switch that builds its tables on first use and one
// built up front through the same packets and control-plane steps.
type lazyPair struct {
	t           *testing.T
	lazy, eager *Switch
	rng         *rand.Rand
	sent        []wire.Header // processed requests, for responses to answer
	clones      []wire.Header // clones waiting to recirculate
	step        int
}

// process runs a copy of h through both switches and requires the same
// action, the same rewritten header, the same clone and the same
// counters.
func (lp *lazyPair) process(h wire.Header) Result {
	lp.t.Helper()
	lp.step++
	hl, he := h, h
	rl, re := lp.lazy.Process(&hl), lp.eager.Process(&he)
	if rl != re || hl != he {
		lp.t.Fatalf("step %d, %+v: lazy switch gave %+v / %+v, eager %+v / %+v", lp.step, h, rl, hl, re, he)
	}
	if sl, se := lp.lazy.Stats(), lp.eager.Stats(); sl != se {
		lp.t.Fatalf("step %d, %+v: lazy switch counts %+v, eager %+v", lp.step, h, sl, se)
	}
	if h.Type == wire.TypeReq && (rl.Act == ActForwardServer || rl.Act == ActCloneAndForward) {
		if rl.Act == ActCloneAndForward {
			lp.clones = append(lp.clones, rl.Clone)
		}
		hl.SID = rl.DstSID // the server that will answer
		lp.sent = append(lp.sent, hl)
	}
	return rl
}

// request returns a fresh client request stamped with switchID.
func (lp *lazyPair) request(switchID uint16) wire.Header {
	return wire.Header{
		Type:      wire.TypeReq,
		Group:     uint16(lp.rng.IntN(100)),
		Idx:       uint8(lp.rng.IntN(4)),
		SwitchID:  switchID,
		ClientID:  uint16(lp.rng.IntN(4)),
		ClientSeq: uint32(lp.step),
		PktTotal:  1,
	}
}

// response answers an earlier request from the server it went to,
// piggybacking a random queue length.
func (lp *lazyPair) response(h wire.Header) wire.Header {
	h.Type = wire.TypeResp
	h.State = uint16(lp.rng.IntN(3))
	return h
}

// foreign returns a packet another ToR stamped: a request, or a
// response to one.
func (lp *lazyPair) foreign() wire.Header {
	h := lp.request(lazyForeignID)
	h.ReqID = uint32(1 + lp.rng.IntN(1000))
	if lp.rng.IntN(2) == 0 {
		h.SID = uint16(lp.rng.IntN(4))
		h.Clo = wire.CloState(lp.rng.IntN(3))
		return lp.response(h)
	}
	return h
}

// randomStep sends one packet of any kind, or takes one control-plane
// step on both switches.
func (lp *lazyPair) randomStep() {
	switch k := lp.rng.IntN(20); {
	case k < 6:
		ids := [...]uint16{0, lazyOwnID, lazyForeignID}
		lp.process(lp.request(ids[lp.rng.IntN(len(ids))]))
	case k < 8 && len(lp.clones) > 0:
		i := lp.rng.IntN(len(lp.clones))
		h := lp.clones[i]
		lp.clones = append(lp.clones[:i], lp.clones[i+1:]...)
		lp.process(h)
	case k < 15 && len(lp.sent) > 0:
		// Responses arrive late, twice, or never: pick any earlier one.
		lp.process(lp.response(lp.sent[lp.rng.IntN(len(lp.sent))]))
	case k < 17:
		lp.process(lp.foreign())
	case k == 17:
		h := lp.request(0)
		h.Clo = wire.CloOriginal // malformed
		lp.process(h)
	case k == 18:
		lp.lazy.Reset()
		lp.eager.Reset()
	default:
		sid := uint16(lp.rng.IntN(6))
		if lp.rng.IntN(2) == 0 {
			lp.lazy.RemoveServer(sid)
			lp.eager.RemoveServer(sid)
		} else {
			if err := lp.lazy.AddServer(sid, uint32(200+sid)); err != nil {
				lp.t.Fatal(err)
			}
			if err := lp.eager.AddServer(sid, uint32(200+sid)); err != nil {
				lp.t.Fatal(err)
			}
		}
	}
}

// TestLazyTablesMatchEager holds a switch that builds its group table
// and filter registers on first use to one that built them at once:
// after every packet of a random sequence — requests stamped with no
// ID, its own and a foreign one, recirculated clones, late, duplicate
// and lost responses, malformed packets, soft-state resets and server
// churn — both return the same action, rewrite the header the same
// way, emit the same clone and count the same. Each sequence opens
// with foreign-ID packets only, the whole life of a transit ToR: the
// lazy switch must build nothing and allocate nothing until its first
// owned packet, and build its tables then.
func TestLazyTablesMatchEager(t *testing.T) {
	configs := map[string]func(*Config){
		"netclone":   func(*Config) {},
		"racksched":  func(c *Config) { c.RackSched = true },
		"nofilter":   func(c *Config) { c.EnableFiltering = false },
		"lamport":    func(c *Config) { c.ClientGeneratedIDs = true },
		"tinyfilter": func(c *Config) { c.FilterSlots = 4 },
	}
	for name, mutate := range configs {
		for seed := uint64(0); seed < 20; seed++ {
			cfg := testConfig()
			cfg.SwitchID = lazyOwnID
			mutate(&cfg)
			lp := &lazyPair{
				t:     t,
				lazy:  newTestSwitch(t, cfg, 4),
				eager: newEagerSwitch(t, cfg, 4),
				rng:   rand.New(rand.NewPCG(seed, 35)),
			}

			for range 50 {
				if r := lp.process(lp.foreign()); r.Act != ActPassL3 {
					t.Fatalf("%s seed %d: foreign packet act = %v, want pass-l3", name, seed, r.Act)
				}
			}
			h := lp.foreign()
			if allocs := testing.AllocsPerRun(20, func() { lp.process(h) }); allocs != 0 {
				t.Fatalf("%s seed %d: a foreign packet allocates %v times, want 0", name, seed, allocs)
			}
			if lp.lazy.groupT != nil || lp.lazy.filterT != nil {
				t.Fatalf("%s seed %d: the switch built its tables before its first owned packet", name, seed)
			}
			lp.process(lp.request(lazyOwnID))
			if lp.lazy.groupT == nil || len(lp.lazy.filterT) != cfg.FilterTables {
				t.Fatalf("%s seed %d: the first owned packet did not build the tables", name, seed)
			}

			for range 400 {
				lp.randomStep()
			}
			if d := sameControlPlane(lp.lazy, lp.eager); d != "" {
				t.Fatalf("%s seed %d: control planes differ: %s", name, seed, d)
			}
		}
	}
}

// TestGroupReadBuildsTables: a control-plane read of the group table
// builds it over the servers installed so far, and later installs and
// removals keep it current, exactly as on a switch that built it at
// once.
func TestGroupReadBuildsTables(t *testing.T) {
	lazy := newTestSwitch(t, testConfig(), 3)
	eager := newEagerSwitch(t, testConfig(), 3)
	if lazy.groupT != nil {
		t.Fatal("installing servers built the group table")
	}
	if d := sameControlPlane(lazy, eager); d != "" {
		t.Fatal(d)
	}
	if lazy.groupT == nil {
		t.Fatal("reading the groups did not build the group table")
	}
	for _, s := range []*Switch{lazy, eager} {
		s.RemoveServer(1)
		if err := s.AddServer(5, 105); err != nil {
			t.Fatal(err)
		}
	}
	if d := sameControlPlane(lazy, eager); d != "" {
		t.Fatal(d)
	}
}

package dataplane

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"netclone/internal/wire"
)

// TestStateShadowAlwaysConsistent drives random packet sequences through
// the switch and verifies the DESIGN.md invariant: the state table and
// its shadow copy are identical after every packet (§3.4 "the switch
// always updates the tables at the same time").
func TestStateShadowAlwaysConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		s := newTestSwitch(t, testConfig(), 4)
		for i := 0; i < 300; i++ {
			if rng.IntN(2) == 0 {
				h := req(uint16(rng.IntN(s.NumGroups())), uint8(rng.IntN(2)))
				res := s.Process(h)
				if res.Act == ActCloneAndForward {
					clone := res.Clone
					s.Process(&clone)
				}
			} else {
				r := &wire.Header{
					Type:  wire.TypeResp,
					SID:   uint16(rng.IntN(4)),
					State: uint16(rng.IntN(3)),
					ReqID: uint32(rng.IntN(1000) + 1),
					Clo:   wire.CloState(rng.IntN(3)),
					Idx:   uint8(rng.IntN(2)),
				}
				s.Process(r)
			}
			for sid := 0; sid < 4; sid++ {
				if s.stateT.vals[sid] != s.shadowT.vals[sid] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExactlyOneResponsePerClonedPair verifies the filtering invariant:
// when both responses of a cloned request reach the switch (in either
// order) and there are no hash collisions in flight, exactly one reaches
// the client.
func TestExactlyOneResponsePerClonedPair(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		s := newTestSwitch(t, testConfig(), 2)
		a, b, _ := s.Group(0)
		for i := 0; i < 200; i++ {
			h := req(0, uint8(rng.IntN(2)))
			res := s.Process(h)
			if res.Act != ActCloneAndForward {
				return false // both always idle in this schedule
			}
			r1 := resp(h, a, 0)
			clone := res.Clone
			r2 := resp(&clone, b, 0)
			if rng.IntN(2) == 0 {
				r1, r2 = r2, r1
			}
			forwarded := 0
			if s.Process(r1).Act == ActForwardClient {
				forwarded++
			}
			if s.Process(r2).Act == ActForwardClient {
				forwarded++
			}
			if forwarded != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneOnlyWhenBothTrackedIdle drives random state updates and
// requests and checks the cloning precondition of Algorithm 1 line 6.
func TestCloneOnlyWhenBothTrackedIdle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		s := newTestSwitch(t, testConfig(), 4)
		// Local mirror of tracked states.
		tracked := make([]uint16, 4)
		for i := 0; i < 400; i++ {
			if rng.IntN(3) == 0 {
				sid := uint16(rng.IntN(4))
				st := uint16(rng.IntN(2))
				s.Process(&wire.Header{Type: wire.TypeResp, SID: sid, State: st, ReqID: 99})
				tracked[sid] = st
			} else {
				g := rng.IntN(s.NumGroups())
				s1, s2, _ := s.Group(g)
				h := req(uint16(g), 0)
				res := s.Process(h)
				wantClone := tracked[s1] == 0 && tracked[s2] == 0
				gotClone := res.Act == ActCloneAndForward
				if wantClone != gotClone {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintHashInRange checks the hash always lands in the table.
func TestFingerprintHashInRange(t *testing.T) {
	s := newTestSwitch(t, testConfig(), 2)
	f := func(reqID uint32) bool {
		return s.fingerprintHash(reqID) < uint32(s.cfg.FilterSlots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintHashSpreads sanity-checks dispersion: sequential request
// IDs should not pile into a few slots.
func TestFingerprintHashSpreads(t *testing.T) {
	s := newTestSwitch(t, testConfig(), 2)
	slots := make(map[uint32]int)
	const n = 4096
	for i := uint32(1); i <= n; i++ {
		slots[s.fingerprintHash(i)]++
	}
	// With 1024 slots and 4096 sequential keys, a fair hash puts ~4 per
	// slot; fail if any slot exceeds 4x that.
	for slot, c := range slots {
		if c > 16 {
			t.Fatalf("slot %d has %d of %d sequential IDs (poor dispersion)", slot, c, n)
		}
	}
	if len(slots) < 900 {
		t.Fatalf("only %d distinct slots used of 1024", len(slots))
	}
}

// TestDeterministicReplay: identical packet sequences produce identical
// decisions and stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, []Action) {
		rng := rand.New(rand.NewPCG(7, 7))
		s := newTestSwitch(t, testConfig(), 4)
		var acts []Action
		for i := 0; i < 500; i++ {
			if rng.IntN(2) == 0 {
				h := req(uint16(rng.IntN(s.NumGroups())), uint8(rng.IntN(2)))
				res := s.Process(h)
				acts = append(acts, res.Act)
				if res.Act == ActCloneAndForward {
					clone := res.Clone
					acts = append(acts, s.Process(&clone).Act)
				}
			} else {
				r := &wire.Header{
					Type: wire.TypeResp, SID: uint16(rng.IntN(4)),
					State: uint16(rng.IntN(2)), ReqID: uint32(i + 1),
					Clo: wire.CloState(rng.IntN(3)), Idx: uint8(rng.IntN(2)),
				}
				acts = append(acts, s.Process(r).Act)
			}
		}
		return s.Stats(), acts
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatal("action streams differ in length")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("action %d differs: %v vs %v", i, a1[i], a2[i])
		}
	}
}

// sameControlPlane reports the first difference between two switches'
// control-plane views: membership, group count, every group, every
// first-candidate range, and (white-box) the raw group and address
// tables, so an entry left valid beyond NumGroups is a difference.
func sameControlPlane(a, b *Switch) string {
	if !slices.Equal(a.Servers(), b.Servers()) {
		return fmt.Sprintf("Servers %v != %v", a.Servers(), b.Servers())
	}
	if a.NumGroups() != b.NumGroups() {
		return fmt.Sprintf("NumGroups %d != %d", a.NumGroups(), b.NumGroups())
	}
	for g := -1; g <= a.NumGroups(); g++ {
		a1, a2, aok := a.Group(g)
		b1, b2, bok := b.Group(g)
		if a1 != b1 || a2 != b2 || aok != bok {
			return fmt.Sprintf("Group(%d): (%d,%d,%v) != (%d,%d,%v)", g, a1, a2, aok, b1, b2, bok)
		}
	}
	for i := -1; i <= len(a.alive); i++ {
		alo, ahi := a.GroupsWithFirst(i)
		blo, bhi := b.GroupsWithFirst(i)
		if alo != blo || ahi != bhi {
			return fmt.Sprintf("GroupsWithFirst(%d): [%d,%d) != [%d,%d)", i, alo, ahi, blo, bhi)
		}
	}
	for g, v := range a.groupT.valid {
		if v != b.groupT.valid[g] || a.groupT.entries[g] != b.groupT.entries[g] {
			return fmt.Sprintf("group-table slot %d: (%v,%v) != (%v,%v)",
				g, a.groupT.entries[g], v, b.groupT.entries[g], b.groupT.valid[g])
		}
		if v != (g < a.NumGroups()) {
			return fmt.Sprintf("group-table slot %d valid=%v with NumGroups %d", g, v, a.NumGroups())
		}
	}
	if !slices.Equal(a.addrT.valid, b.addrT.valid) || !slices.Equal(a.addrT.entries, b.addrT.entries) {
		return "address tables differ"
	}
	return ""
}

// TestBulkInstallMatchesIncremental pins the single-rebuild control
// plane: one InstallServers over a random membership leaves exactly the
// tables that adding the same servers one by one in random order does,
// and RemoveServer after a bulk install leaves exactly a bulk install
// without that server — including no valid entry past the shrunken
// group count.
func TestBulkInstallMatchesIncremental(t *testing.T) {
	const maxServers = 12
	cfg := testConfig()
	cfg.MaxServers = maxServers
	mk := func() *Switch {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		var members []ServerEntry
		for sid := 0; sid < maxServers; sid++ {
			if rng.IntN(3) > 0 {
				members = append(members, ServerEntry{SID: uint16(sid), Addr: uint32(1000 + rng.IntN(100))})
			}
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })

		bulk, inc := mk(), mk()
		if err := bulk.InstallServers(members); err != nil {
			t.Log(err)
			return false
		}
		for _, e := range members {
			if err := inc.AddServer(e.SID, e.Addr); err != nil {
				t.Log(err)
				return false
			}
		}
		if d := sameControlPlane(bulk, inc); d != "" {
			t.Logf("seed %d bulk vs incremental: %s", seed, d)
			return false
		}
		if n := len(members); bulk.groupT.writes != int64(n*(n-1)) {
			t.Logf("seed %d: bulk install of %d servers wrote the group table %d times, want n(n-1) = %d",
				seed, n, bulk.groupT.writes, n*(n-1))
			return false
		}

		// Remove members one at a time, down to the empty set; after
		// each step the survivor tables equal a fresh bulk install.
		for len(members) > 0 {
			k := rng.IntN(len(members))
			bulk.RemoveServer(members[k].SID)
			members = slices.Delete(members, k, k+1)
			want := mk()
			if err := want.InstallServers(members); err != nil {
				t.Log(err)
				return false
			}
			if d := sameControlPlane(bulk, want); d != "" {
				t.Logf("seed %d after removal to %d members: %s", seed, len(members), d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestInstallServersRejectsOutOfRangeAtomically: one bad ID installs
// nothing, and re-installing a member only updates its address.
func TestInstallServersRejectsOutOfRangeAtomically(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ServerEntry{{SID: 0, Addr: 1}, {SID: uint16(cfg.MaxServers), Addr: 2}}
	if err := s.InstallServers(bad); err == nil {
		t.Fatal("out-of-range server ID accepted")
	}
	if len(s.Servers()) != 0 || s.NumGroups() != 0 || s.addrT.has(0) {
		t.Fatalf("rejected install left state behind: servers %v, groups %d", s.Servers(), s.NumGroups())
	}
	if err := s.InstallServers([]ServerEntry{{0, 1}, {1, 2}, {0, 9}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Servers(); !slices.Equal(got, []uint16{0, 1}) {
		t.Fatalf("Servers = %v, want [0 1]", got)
	}
	if s.addrT.entries[0] != 9 {
		t.Fatalf("duplicate entry did not update the address: %d", s.addrT.entries[0])
	}
}

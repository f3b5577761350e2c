package dataplane

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"netclone/internal/wire"
)

// Stage layout of the NetClone ingress pipeline. With the default two
// filter tables this occupies 7 match-action stages, matching the
// prototype's resource report (§4.1).
const (
	stageSeq    = 0 // global sequencer register
	stageGroup  = 1 // group table: group ID -> candidate server pair
	stageState  = 2 // state/load table (queue lengths, 0 = idle)
	stageShadow = 3 // shadow copy of the state table (§3.4)
	stageAddr   = 4 // address table: server ID -> address
	stageFilter = 5 // first filter table; one stage per filter table
)

// Config parameterizes a NetClone switch instance.
type Config struct {
	// SwitchID identifies this ToR in multi-rack deployments (§3.7).
	// Zero is a valid ID for single-rack use; packets with SwitchID 0 or
	// equal to this ID receive NetClone processing.
	SwitchID uint16

	// MaxServers bounds the server ID space (table capacities are
	// allocated at compile time on the ASIC, §3.5).
	MaxServers int

	// FilterTables is the number of response filter tables (§3.5). The
	// prototype uses 2. Must be in [1, 256] since the IDX field is 8 bits.
	FilterTables int

	// FilterSlots is the number of hash slots per filter table; must be a
	// power of two. The prototype uses 2^17.
	FilterSlots int

	// EnableCloning turns the request cloning module on. Disabling it
	// reduces the switch to plain group-based forwarding (the paper's
	// "Baseline" forwards to a random server this way).
	EnableCloning bool

	// EnableFiltering turns the response filtering module on. Disabling
	// it reproduces the Fig 15 ablation ("NetClone w/o Filtering").
	EnableFiltering bool

	// RackSched enables the §3.7 integration: when the candidate servers
	// are not both idle, fall back to power-of-two-choices
	// join-shortest-queue scheduling over the tracked queue lengths
	// instead of always picking the first candidate.
	RackSched bool

	// ClientGeneratedIDs switches request-ID assignment to the TCP mode
	// of §3.7: instead of the switch sequencer, the request ID derives
	// from the client's (ClientID, ClientSeq) tuple — a Lamport-clock
	// style identifier that is stable across retransmissions, so a
	// retransmitted request matches its original's filter fingerprint.
	ClientGeneratedIDs bool
}

// DefaultConfig returns the prototype configuration from §4.1: two filter
// tables of 2^17 slots, cloning and filtering enabled.
func DefaultConfig() Config {
	return Config{
		MaxServers:      64,
		FilterTables:    2,
		FilterSlots:     1 << 17,
		EnableCloning:   true,
		EnableFiltering: true,
	}
}

// Action tells the surrounding forwarding element what to do with the
// packet after NetClone processing.
type Action uint8

// Actions returned by Switch.Process.
const (
	// ActForwardServer: forward the (request) packet to Result.DstSID.
	ActForwardServer Action = iota
	// ActCloneAndForward: forward the original to Result.DstSID and
	// recirculate Result.Clone (which must re-enter Process after the
	// recirculation delay).
	ActCloneAndForward
	// ActForwardClient: forward the (response) packet to its client.
	ActForwardClient
	// ActDrop: drop the packet (filtered redundant response, or no
	// route).
	ActDrop
	// ActPassL3: not ours to process (foreign ToR owns it); forward by
	// plain L3 routing.
	ActPassL3
)

// String names the action for logs.
func (a Action) String() string {
	switch a {
	case ActForwardServer:
		return "forward-server"
	case ActCloneAndForward:
		return "clone-and-forward"
	case ActForwardClient:
		return "forward-client"
	case ActDrop:
		return "drop"
	case ActPassL3:
		return "pass-l3"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Result is the outcome of processing one packet.
type Result struct {
	Act     Action
	DstSID  uint16      // destination server (requests)
	DstAddr uint32      // address-table entry for DstSID
	Clone   wire.Header // recirculating clone, valid iff Act == ActCloneAndForward
}

// Stats counts data-plane events since construction or the last Reset.
type Stats struct {
	Requests           int64 // client requests processed
	Cloned             int64 // requests replicated (clone emitted)
	Recirculated       int64 // clone packets completing recirculation
	JSQFallback        int64 // RackSched JSQ decisions (not both idle)
	ForwardedPlain     int64 // requests forwarded to first candidate
	Responses          int64 // responses processed
	FilterDrops        int64 // slower responses dropped (§3.5)
	FilterInserts      int64 // fingerprints inserted for faster responses
	FilterOverwrites   int64 // inserts that overwrote a foreign fingerprint
	DropsNoRoute       int64 // packets dropped for missing table entries
	PassL3             int64 // foreign-ToR packets passed through
	MalformedDrops     int64 // invalid header field combinations
	StateUpdates       int64 // state/shadow writes from responses
	SeqWraps           int64 // sequencer wrap-arounds (§3.6)
	ControlPlaneResets int64 // soft-state resets (switch failure model)
}

// Switch is one NetClone ToR data plane. It is not safe for concurrent
// use; see the package comment.
type Switch struct {
	cfg Config

	// Pipeline stateful objects, each pinned to its stage. The group
	// table and the filter registers — n(n-1) entries and FilterTables x
	// FilterSlots words, the switch's only large objects — are built on
	// first use (materialize): until then groupT and filterT are nil and
	// the control plane keeps only the alive set and the address table.
	// A transit ToR of a multi-rack fabric sees nothing but packets
	// another switch stamped, which Process passes by L3 before any
	// table, so it never builds them.
	seqReg  *regArray              // stage 0, single slot
	groupT  *matchTable[[2]uint16] // stage 1
	stateT  *regArray              // stage 2
	shadowT *regArray              // stage 3
	addrT   *matchTable[uint32]    // stage 4
	filterT []*regArray            // stages 5..5+FilterTables-1

	// filterDirty records, per filter table, the slots written since the
	// last reset. Recycle zeroes exactly those slots before returning the
	// backing array to the pool, so a reused array never pays a
	// half-megabyte clear. A table whose dirty list overflows
	// filterDirtyCap falls back to a full clear (entry -1 marks this).
	filterDirty [][]int32

	filterMask uint32
	passID     uint64

	alive     []uint16 // sorted server IDs currently installed
	numGroups int

	stats Stats
}

// Configuration errors returned by New.
var (
	ErrBadFilterSlots  = errors.New("dataplane: FilterSlots must be a power of two >= 2")
	ErrBadFilterTables = errors.New("dataplane: FilterTables must be in [1, 256]")
	ErrBadMaxServers   = errors.New("dataplane: MaxServers must be in [2, 65535]")
)

// New builds a switch from cfg.
func New(cfg Config) (*Switch, error) {
	if cfg.FilterSlots < 2 || bits.OnesCount(uint(cfg.FilterSlots)) != 1 {
		return nil, ErrBadFilterSlots
	}
	if cfg.FilterTables < 1 || cfg.FilterTables > 256 {
		return nil, ErrBadFilterTables
	}
	if cfg.MaxServers < 2 || cfg.MaxServers > 65535 {
		return nil, ErrBadMaxServers
	}
	return &Switch{
		cfg:        cfg,
		seqReg:     newRegArray("sequencer", stageSeq, 1),
		stateT:     newRegArray("state-table", stageState, cfg.MaxServers),
		shadowT:    newRegArray("shadow-table", stageShadow, cfg.MaxServers),
		addrT:      newMatchTable[uint32]("addr-table", stageAddr, cfg.MaxServers),
		filterMask: uint32(cfg.FilterSlots - 1),
	}, nil
}

// materialize builds the group table over the installed servers and the
// filter registers: on the first owned pass, or the first read of the
// group table. Until then a switch differs from one built eagerly only
// in memory — every table it has not built is one no packet has read.
func (s *Switch) materialize() {
	s.groupT = newMatchTable[[2]uint16]("group-table", stageGroup, s.cfg.MaxServers*(s.cfg.MaxServers-1))
	s.filterT = make([]*regArray, s.cfg.FilterTables)
	s.filterDirty = make([][]int32, s.cfg.FilterTables)
	for i := range s.filterT {
		s.filterT[i] = newRegArray(fmt.Sprintf("filter-table-%d", i), stageFilter+i, s.cfg.FilterSlots)
		s.filterDirty[i] = make([]int32, 0, 256)
	}
	s.rebuildGroups()
}

// filterDirtyCap bounds the per-table dirty list. Past this many writes
// a full clear at recycle time is cheaper than the bookkeeping.
const filterDirtyCap = 8192

// markFilterDirty records a write to slot idx of filter table ti.
func (s *Switch) markFilterDirty(ti, idx int) {
	d := s.filterDirty[ti]
	if n := len(d); n > 0 && d[n-1] == -1 {
		return // already overflowed; full clear on recycle
	}
	if len(d) >= filterDirtyCap {
		s.filterDirty[ti] = append(d[:0], -1)
		return
	}
	s.filterDirty[ti] = append(d, int32(idx))
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Stats returns a copy of the event counters.
func (s *Switch) Stats() Stats { return s.stats }

// ServerEntry is one address-table row: a server ID and its address.
type ServerEntry struct {
	SID  uint16
	Addr uint32
}

// InstallServers installs (or updates) every entry in the address table
// and rebuilds the group table over the resulting alive set once, the
// way the paper's control plane installs the 2*C(n,2) groups out of
// band (§3.3, §3.8). Nothing is installed when any ID is out of range.
func (s *Switch) InstallServers(entries []ServerEntry) error {
	for _, e := range entries {
		if int(e.SID) >= s.cfg.MaxServers {
			return fmt.Errorf("dataplane: server ID %d exceeds MaxServers %d", e.SID, s.cfg.MaxServers)
		}
	}
	for _, e := range entries {
		if !s.addrT.has(int(e.SID)) {
			s.alive = append(s.alive, e.SID)
		}
		s.addrT.install(int(e.SID), e.Addr)
	}
	slices.Sort(s.alive)
	s.rebuildGroups()
	return nil
}

// AddServer installs (or updates) one server: the incremental form of
// InstallServers, for a control plane that learns servers one by one.
func (s *Switch) AddServer(sid uint16, addr uint32) error {
	return s.InstallServers([]ServerEntry{{SID: sid, Addr: addr}})
}

// RemoveServer removes a failed server from the address and group tables
// (§3.6 "the switch control plane can quickly remove the failed server
// ... by updating relevant tables").
func (s *Switch) RemoveServer(sid uint16) {
	s.addrT.remove(int(sid))
	if i, ok := slices.BinarySearch(s.alive, sid); ok {
		s.alive = slices.Delete(s.alive, i, i+1)
	}
	s.rebuildGroups()
}

// Servers returns the sorted alive server IDs.
func (s *Switch) Servers() []uint16 {
	out := make([]uint16, len(s.alive))
	copy(out, s.alive)
	return out
}

// NumGroups returns the number of installed groups: n*(n-1) ordered pairs
// over n alive servers (§3.3: "The number of groups is 2*C(n,2) ...
// multiplying by two is to sustain the randomness of server selection").
// Like every read of the group table, it builds the tables on first use.
func (s *Switch) NumGroups() int {
	if s.groupT == nil {
		s.materialize()
	}
	return s.numGroups
}

// Group returns the candidate pair for group g.
func (s *Switch) Group(g int) (sid1, sid2 uint16, ok bool) {
	if s.groupT == nil {
		s.materialize()
	}
	if g < 0 || g >= s.numGroups {
		return 0, 0, false
	}
	pair := s.groupT.entries[g]
	return pair[0], pair[1], true
}

// GroupsWithFirst returns the group ID range [lo, hi) whose first
// candidate is the i-th alive server. Clients that need to target a
// specific server (e.g. the C-Clone client) pick any group in this range.
func (s *Switch) GroupsWithFirst(i int) (lo, hi int) {
	n := len(s.alive)
	if n < 2 || i < 0 || i >= n {
		return 0, 0
	}
	return i * (n - 1), (i + 1) * (n - 1)
}

// rebuildGroups installs all ordered pairs of alive servers: group
// g = i*(n-1) + k maps to (alive[i], alive[k >= i ? k+1 : k]). Entries
// below the new group count are overwritten in place; only the tail a
// shrinking alive set leaves behind is removed. A switch that has not
// built its group table has nothing to rebuild: materialize builds it
// from the alive set as it then stands.
func (s *Switch) rebuildGroups() {
	if s.groupT == nil {
		return
	}
	n := len(s.alive)
	g := 0
	for i := 0; i < n; i++ {
		for k := 0; k < n-1; k++ {
			j := k
			if k >= i {
				j = k + 1
			}
			s.groupT.install(g, [2]uint16{s.alive[i], s.alive[j]})
			g++
		}
	}
	for stale := g; stale < s.numGroups; stale++ {
		s.groupT.remove(stale)
	}
	s.numGroups = g
}

// Reset clears all soft state (sequencer, state/shadow tables, filter
// tables), modelling a switch failure and restart (§3.6). Match-action
// table entries survive: they are restored by the control plane on boot.
func (s *Switch) Reset() {
	s.seqReg.reset()
	s.stateT.reset()
	s.shadowT.reset()
	for i, f := range s.filterT {
		f.reset()
		s.filterDirty[i] = s.filterDirty[i][:0]
	}
	s.stats.ControlPlaneResets++
}

// Recycle returns the switch's large register backings to the package
// pool. The switch must not process packets afterwards; callers invoke
// it when tearing down a simulation whose results have already been
// extracted, so the next cluster build reuses the half-megabyte filter
// arrays instead of re-allocating them.
func (s *Switch) Recycle() {
	for i, f := range s.filterT {
		d := s.filterDirty[i]
		if len(d) > 0 && d[len(d)-1] == -1 {
			clear(f.vals) // dirty list overflowed; pay the full clear
		} else {
			for _, idx := range d {
				f.vals[idx] = 0
			}
		}
		putVals(f.vals)
		f.vals = nil
		s.filterDirty[i] = nil
	}
	s.filterT = nil
}

// fingerprintHash maps a request ID to a filter-table slot (§3.5). The
// Tofino prototype uses a CRC-based hash unit; any well-mixed determinstic
// function preserves the collision behaviour, so we use a Fibonacci
// multiply-xor hash.
func (s *Switch) fingerprintHash(reqID uint32) uint32 {
	x := reqID * 2654435761 // Knuth's multiplicative constant
	x ^= x >> 15
	x *= 2246822519
	x ^= x >> 13
	return x & s.filterMask
}

// Process runs one packet through the ingress pipeline and returns the
// forwarding decision. It mutates h exactly as the ASIC rewrites header
// fields (assigning REQ_ID, CLO, SID, and SwitchID). Algorithm 1 of the
// paper.
func (s *Switch) Process(h *wire.Header) Result {
	p := &pass{id: s.nextPass()}

	// Multi-rack ownership (§3.7): apply NetClone logic only when the
	// switch ID field is zero (we are the first NetClone hop) or our own.
	if h.SwitchID != 0 && h.SwitchID != s.cfg.SwitchID {
		s.stats.PassL3++
		return Result{Act: ActPassL3}
	}
	if s.groupT == nil {
		s.materialize()
	}

	switch {
	case h.Type == wire.TypeReq && h.Clo == wire.CloClone:
		return s.processRecirculatedClone(p, h)
	case h.Type == wire.TypeReq && h.Clo == wire.CloNone:
		return s.processRequest(p, h)
	case h.Type == wire.TypeResp:
		return s.processResponse(p, h)
	default:
		// A client-originated request must not claim CloOriginal; the
		// real switch would misbehave, we drop and count.
		s.stats.MalformedDrops++
		return Result{Act: ActDrop}
	}
}

// processRequest implements Algorithm 1 lines 1–10 (plus the RackSched
// fallback of §3.7 when enabled).
func (s *Switch) processRequest(p *pass, h *wire.Header) Result {
	s.stats.Requests++

	// Lines 2–3: assign a request ID. UDP mode uses the global
	// sequencer; slot value 0 means "empty" in the filter tables, so the
	// sequencer skips 0 on wrap (§3.6 tolerates restarts from 0 for the
	// same reason). TCP mode (§3.7) folds the client's Lamport-style
	// (ClientID, ClientSeq) tuple instead, so retransmissions keep their
	// ID.
	var reqID uint32
	if s.cfg.ClientGeneratedIDs {
		reqID = foldLamport(h.LamportID())
	} else {
		sp := s.seqReg.slot(p, 0)
		old := *sp
		n := old + 1
		if n == 0 {
			n = 1
		}
		*sp = n
		reqID = old + 1
		if reqID == 0 {
			reqID = 1
			s.stats.SeqWraps++
		}
	}
	h.ReqID = reqID
	h.SwitchID = s.cfg.SwitchID

	// Line 4: group table lookup -> candidate pair.
	if s.numGroups == 0 {
		s.stats.DropsNoRoute++
		return Result{Act: ActDrop}
	}
	pair, ok := s.groupT.lookup(p, int(h.Group)%s.numGroups)
	if !ok {
		s.stats.DropsNoRoute++
		return Result{Act: ActDrop}
	}
	srv1, srv2 := pair[0], pair[1]

	// Line 6: read the tracked states. The state table is statically
	// allocated to one stage, so the second read must use the shadow
	// copy in the next stage (§3.4).
	q1 := *s.stateT.slot(p, int(srv1))
	q2 := *s.shadowT.slot(p, int(srv2))

	dst := srv1
	clone := false
	switch {
	case s.cfg.EnableCloning && q1 == wire.StateIdle && q2 == wire.StateIdle:
		// Lines 7–9: both candidates idle -> clone.
		clone = true
	case s.cfg.RackSched:
		// §3.7: fall back to power-of-two-choices JSQ over tracked
		// queue lengths.
		if q2 < q1 {
			dst = srv2
		}
		s.stats.JSQFallback++
	default:
		s.stats.ForwardedPlain++
	}

	addr, ok := s.addrT.lookup(p, int(dst))
	if !ok {
		s.stats.DropsNoRoute++
		return Result{Act: ActDrop}
	}

	if !clone {
		return Result{Act: ActForwardServer, DstSID: dst, DstAddr: addr}
	}

	// Lines 7–9: mark the original (CLO=1), stash the clone's server in
	// SID, and emit the clone for recirculation. The clone cannot take
	// its destination address here — the pipeline already consumed its
	// address-table access for the original — which is exactly why the
	// prototype recirculates it (§3.4 "Cloning in the switch").
	s.stats.Cloned++
	h.Clo = wire.CloOriginal
	h.SID = srv2
	cl := *h
	cl.Clo = wire.CloClone
	return Result{Act: ActCloneAndForward, DstSID: srv1, DstAddr: addr, Clone: cl}
}

// processRecirculatedClone implements Algorithm 1 lines 11–13: the clone
// re-enters the ingress pipeline, picks up its destination address from
// the SID field, and is forwarded.
func (s *Switch) processRecirculatedClone(p *pass, h *wire.Header) Result {
	addr, ok := s.addrT.lookup(p, int(h.SID))
	if !ok {
		// The clone's server was removed between cloning and
		// recirculation; the original still serves the request.
		s.stats.DropsNoRoute++
		return Result{Act: ActDrop}
	}
	s.stats.Recirculated++
	return Result{Act: ActForwardServer, DstSID: h.SID, DstAddr: addr}
}

// processResponse implements Algorithm 1 lines 14–25: state tracking and
// redundant-response filtering.
func (s *Switch) processResponse(p *pass, h *wire.Header) Result {
	s.stats.Responses++
	if int(h.SID) >= s.cfg.MaxServers || h.Clo > wire.CloClone {
		// Out-of-range SID or CLO outside its domain: the wire decoder
		// rejects such packets before they reach a real pipeline; drop
		// them here too so the state machine is robust standalone.
		s.stats.MalformedDrops++
		return Result{Act: ActDrop}
	}

	// Lines 15–16: update both state tables with the piggybacked queue
	// length so they stay consistent (§3.4).
	st := uint32(h.State)
	*s.stateT.slot(p, int(h.SID)) = st
	*s.shadowT.slot(p, int(h.SID)) = st
	s.stats.StateUpdates++

	// Lines 17–24: responses of cloned requests pass the fingerprint
	// filter; everything else goes straight to the client.
	if h.Clo == wire.CloNone || !s.cfg.EnableFiltering {
		return Result{Act: ActForwardClient}
	}

	ti := int(h.Idx) % len(s.filterT)
	ft := s.filterT[ti]
	reqID := h.ReqID
	slot := int(s.fingerprintHash(reqID))
	fp := ft.slot(p, slot)
	old := *fp
	if old == reqID {
		// Line 19–21: slower response — clear the slot and drop.
		// Zero writes need no dirty mark: recycle only has to undo
		// nonzero state.
		*fp = 0
		s.stats.FilterDrops++
		return Result{Act: ActDrop}
	}
	// Line 22–23: faster response — insert the fingerprint.
	// Overwriting a foreign fingerprint is allowed by design to
	// tolerate response loss and hash collisions (§3.5).
	*fp = reqID
	s.markFilterDirty(ti, slot)
	s.stats.FilterInserts++
	if old != 0 {
		s.stats.FilterOverwrites++
	}
	return Result{Act: ActForwardClient}
}

// foldLamport compresses the 48 significant bits of a Lamport request
// identifier into the 32-bit REQ_ID field, avoiding the reserved value
// 0. Distinct in-flight requests collide only as a generic hash
// collision, which the filter's overwrite rule already tolerates (§3.5).
func foldLamport(lamport uint64) uint32 {
	x := uint32(lamport) ^ uint32(lamport>>32)*2654435761
	if x == 0 {
		x = 1
	}
	return x
}

func (s *Switch) nextPass() uint64 {
	s.passID++
	return s.passID
}

package dataplane

import (
	"testing"

	"netclone/internal/wire"
)

// policyTag names the server rule a row of TestServerPolicy pins.
type policyTag string

const (
	guardTag policyTag = "clone-guard"
	stateTag policyTag = "load-report"
)

// TestServerPolicy pins both server rules as one table: the stale-clone
// guard over original or clone x waiting x guard, and the piggybacked
// load over waiting x backlog, past the 16-bit State field's range.
func TestServerPolicy(t *testing.T) {
	admit := []struct {
		tag     policyTag
		name    string
		clo     wire.CloState
		waiting int
		guard   bool
		want    bool
	}{
		{guardTag, "uncloned request, queue waiting", wire.CloNone, 3, true, true},
		{guardTag, "original, empty queue", wire.CloOriginal, 0, true, true},
		{guardTag, "original, queue waiting", wire.CloOriginal, 3, true, true},
		{guardTag, "clone, empty queue", wire.CloClone, 0, true, true},
		{guardTag, "clone, one waiting", wire.CloClone, 1, true, false},
		{guardTag, "clone, more waiting than State holds", wire.CloClone, 70000, true, false},
		{guardTag, "clone, one waiting, guard off", wire.CloClone, 1, false, true},
		{guardTag, "clone, empty queue, guard off", wire.CloClone, 0, false, true},
		{guardTag, "original, queue waiting, guard off", wire.CloOriginal, 3, false, true},
	}
	for _, tc := range admit {
		if got := AdmitRequest(tc.clo, tc.waiting, tc.guard); got != tc.want {
			t.Errorf("%s/%s: AdmitRequest(%v, %d, %v) = %v, want %v",
				tc.tag, tc.name, tc.clo, tc.waiting, tc.guard, got, tc.want)
		}
	}

	state := []struct {
		tag              policyTag
		name             string
		waiting, backlog int
		want             uint16
	}{
		{stateTag, "idle", 0, 0, 0},
		{stateTag, "queue alone", 5, 0, 5},
		{stateTag, "burst no larger than the pool", 3, -2, 3},
		{stateTag, "idle, burst smaller than the pool", 0, -4, 0},
		{stateTag, "backlog above the queue", 2, 6, 6},
		{stateTag, "queue above the backlog", 9, 6, 9},
		{stateTag, "queue at the field's maximum", 65535, 0, 65535},
		{stateTag, "queue one past the maximum", 65536, 0, 65535},
		{stateTag, "queue far past the maximum", 70000, 3, 65535},
		{stateTag, "backlog past the maximum", 1, 70000, 65535},
	}
	for _, tc := range state {
		if got := ServerState(tc.waiting, tc.backlog); got != tc.want {
			t.Errorf("%s/%s: ServerState(%d, %d) = %d, want %d",
				tc.tag, tc.name, tc.waiting, tc.backlog, got, tc.want)
		}
	}
}

package faults

import (
	"strings"
	"testing"
	"time"
)

var testCluster = Cluster{Servers: 6}

// TestValidateAcceptsWellFormed covers one well-formed injection of
// every kind, including Forever windows and a zero-ramp slowdown.
func TestValidateAcceptsWellFormed(t *testing.T) {
	p := New(
		ServerCrash(0, 10*time.Millisecond, 20*time.Millisecond),
		ServerCrash(1, 30*time.Millisecond, Forever),
		ServerSlowdown(2, 5*time.Millisecond, 50*time.Millisecond, 4, 10*time.Millisecond),
		ServerSlowdown(3, 0, Forever, 2, 0),
		Loss(0, 50*time.Millisecond, 0.01),
		LossRamp(60*time.Millisecond, 80*time.Millisecond, 0.5, 0),
		SwitchOutage(95*time.Millisecond, 99*time.Millisecond),
	)
	if err := p.Validate(testCluster); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}

// TestValidateRejections is the table-driven pass over every rejection
// rule: fields, windows, targets, and same-kind overlap contradictions.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{
			name: "negative start",
			plan: New(Loss(-time.Millisecond, time.Second, 0.1)),
			want: "starts at",
		},
		{
			name: "crash recovery before failure",
			plan: New(ServerCrash(0, 2*time.Second, time.Second)),
			want: "not after failure",
		},
		{
			name: "crash recovery equals failure",
			plan: New(ServerCrash(0, time.Second, time.Second)),
			want: "not after failure",
		},
		{
			name: "switch outage without recovery",
			plan: New(SwitchOutage(time.Second, 0)),
			want: "recovery",
		},
		{
			name: "empty loss window",
			plan: New(Loss(time.Second, time.Second, 0.1)),
			want: "not after its start",
		},
		{
			name: "server target out of range",
			plan: New(ServerCrash(6, 0, time.Second)),
			want: "servers 0..5",
		},
		{
			name: "negative server target",
			plan: New(ServerSlowdown(-1, 0, time.Second, 2, 0)),
			want: "servers 0..5",
		},
		{
			name: "slowdown factor zero",
			plan: New(ServerSlowdown(0, 0, time.Second, 0, 0)),
			want: "factor",
		},
		{
			name: "slowdown ramp longer than window",
			plan: New(ServerSlowdown(0, 0, time.Second, 2, 2*time.Second)),
			want: "ramp",
		},
		{
			name: "loss probability negative",
			plan: New(Loss(0, time.Second, -0.1)),
			want: "loss probability",
		},
		{
			name: "loss probability one",
			plan: New(Loss(0, time.Second, 1)),
			want: "loss probability",
		},
		{
			name: "loss ramp endpoint out of range",
			plan: New(LossRamp(0, time.Second, 0.5, 1.5)),
			want: "loss probability",
		},
		{
			name: "unknown kind",
			plan: New(Injection{Kind: kindCount, Target: -1, UntilNS: 1}),
			want: "unknown fault kind",
		},
		{
			name: "overlapping crashes on one server",
			plan: New(
				ServerCrash(0, time.Second, 3*time.Second),
				ServerCrash(0, 2*time.Second, 4*time.Second),
			),
			want: "overlap",
		},
		{
			name: "overlapping loss windows",
			plan: New(
				Loss(0, Forever, 0.01),
				LossRamp(time.Second, 2*time.Second, 0.5, 0.1),
			),
			want: "overlap",
		},
		{
			name: "overlapping switch outages declared out of order",
			plan: New(
				SwitchOutage(5*time.Second, 9*time.Second),
				SwitchOutage(time.Second, 6*time.Second),
			),
			want: "overlap",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(testCluster)
			if err == nil {
				t.Fatalf("invalid plan accepted: %+v", tc.plan.Injections())
			}
			if !strings.HasPrefix(err.Error(), "faults: ") {
				t.Errorf("error %q missing the uniform prefix", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNonOverlappingSameTargetAccepted: adjacent windows (end == next
// start) are not a contradiction.
func TestNonOverlappingSameTargetAccepted(t *testing.T) {
	p := New(
		ServerCrash(0, time.Second, 2*time.Second),
		ServerCrash(0, 2*time.Second, 3*time.Second),
		Loss(0, time.Second, 0.1),
		Loss(time.Second, 2*time.Second, 0.2),
	)
	if err := p.Validate(testCluster); err != nil {
		t.Fatalf("adjacent windows rejected: %v", err)
	}
}

// TestSameKindDifferentTargetsAccepted: concurrent crashes of distinct
// servers are a legitimate chaos shape.
func TestSameKindDifferentTargetsAccepted(t *testing.T) {
	p := New(
		ServerCrash(0, time.Second, 3*time.Second),
		ServerCrash(1, 2*time.Second, 4*time.Second),
	)
	if err := p.Validate(testCluster); err != nil {
		t.Fatalf("concurrent crashes of distinct servers rejected: %v", err)
	}
}

// TestPlanImmutability checks With derives without mutating the
// receiver, including the nil receiver.
func TestPlanImmutability(t *testing.T) {
	base := New(Loss(0, Forever, 0.01))
	ext := base.With(SwitchOutage(time.Second, 2*time.Second))
	if base.Len() != 1 || ext.Len() != 2 {
		t.Fatalf("With mutated the receiver: base %d, ext %d", base.Len(), ext.Len())
	}
	var nilPlan *Plan
	if got := nilPlan.With(Loss(0, Forever, 0.5)); got.Len() != 1 {
		t.Fatalf("nil.With built %d injections, want 1", got.Len())
	}
	if !nilPlan.Empty() || nilPlan.Len() != 0 || nilPlan.Injections() != nil {
		t.Fatal("nil plan is not the empty plan")
	}
	inj := base.Injections()
	inj[0].StartProb = 0.9
	if base.Injections()[0].StartProb != 0.01 {
		t.Fatal("Injections returned an aliased slice")
	}
}

// TestWindowsMergesIntervals checks the degraded-interval union:
// overlapping and nested windows merge, disjoint ones stay separate,
// order of declaration is irrelevant.
func TestWindowsMergesIntervals(t *testing.T) {
	p := New(
		SwitchOutage(50*time.Millisecond, 60*time.Millisecond),
		ServerCrash(0, 10*time.Millisecond, 30*time.Millisecond),
		ServerSlowdown(1, 20*time.Millisecond, 40*time.Millisecond, 2, 0),
		Loss(25*time.Millisecond, 28*time.Millisecond, 0.1), // nested
	)
	got := p.Windows()
	want := [][2]int64{{10e6, 40e6}, {50e6, 60e6}}
	if len(got) != len(want) {
		t.Fatalf("Windows() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Windows()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if New().Windows() != nil {
		t.Error("empty plan has windows")
	}
}

// TestSlowdownAt pins the two lookups on a server's windows, the
// slowdown factor and the crash state: a window holds its start and not
// its end, a ramp climbs linearly from 1, adjacent windows declared out
// of order hand over at their shared edge, and other servers' and other
// kinds' windows do not count.
func TestSlowdownAt(t *testing.T) {
	ramped := []Injection{ServerSlowdown(1, 100, 200, 3, 50)}
	adjacent := []Injection{
		ServerCrash(0, 0, 1000),
		ServerSlowdown(0, 200, 300, 2, 0),
		ServerSlowdown(0, 100, 200, 4, 0),
		ServerSlowdown(1, 0, Forever, 8, 0),
	}
	crashes := []Injection{
		ServerSlowdown(2, 0, 1000, 2, 0),
		ServerCrash(2, 500, 600),
		ServerCrash(2, 400, 500),
		ServerCrash(3, 0, Forever),
	}
	cases := []struct {
		name   string
		inj    []Injection
		server int
		t      int64
		want   float64
		ok     bool
		down   bool
	}{
		{"before the window", ramped, 1, 99, 1, false, false},
		{"at the ramp's start", ramped, 1, 100, 1, true, false},
		{"halfway up the ramp", ramped, 1, 125, 2, true, false},
		{"at the ramp's end", ramped, 1, 150, 3, true, false},
		{"last nanosecond of the window", ramped, 1, 199, 3, true, false},
		{"at the window's end", ramped, 1, 200, 1, false, false},
		{"another server", ramped, 0, 150, 1, false, false},
		{"the earlier of two adjacent windows, at its start", adjacent, 0, 100, 4, true, true},
		{"the earlier window's last nanosecond", adjacent, 0, 199, 4, true, true},
		{"the later window, at the shared edge", adjacent, 0, 200, 2, true, true},
		{"past both", adjacent, 0, 300, 1, false, true},
		{"past the crash", adjacent, 0, 1000, 1, false, false},
		{"a window that never ends", adjacent, 1, 1 << 60, 8, true, false},
		{"before the earlier of two adjacent crashes", crashes, 2, 399, 2, true, false},
		{"the earlier crash, at its start", crashes, 2, 400, 2, true, true},
		{"the earlier crash's last nanosecond", crashes, 2, 499, 2, true, true},
		{"the later crash, at the shared edge", crashes, 2, 500, 2, true, true},
		{"the later crash's last nanosecond", crashes, 2, 599, 2, true, true},
		{"at the later crash's end", crashes, 2, 600, 2, true, false},
		{"a crash that never ends", crashes, 3, 1 << 60, 1, false, true},
		{"another server's crash", crashes, 1, 450, 1, false, false},
	}
	for _, tc := range cases {
		if got, ok := SlowdownAt(tc.inj, tc.server, tc.t); got != tc.want || ok != tc.ok {
			t.Errorf("%s: server %d at %d: factor %g (%v), want %g (%v)", tc.name, tc.server, tc.t, got, ok, tc.want, tc.ok)
		}
		if down := DownAt(tc.inj, tc.server, tc.t); down != tc.down {
			t.Errorf("%s: server %d at %d: down %v, want %v", tc.name, tc.server, tc.t, down, tc.down)
		}
	}
}

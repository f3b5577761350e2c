package main

import "testing"

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100},
		// Two children that overlap each other on [30, 40].
		{Name: "child", Parent: 0, StartNS: 10, EndNS: 40, N: 1},
		{Name: "child", Parent: 0, StartNS: 30, EndNS: 60, N: 1},
		// A child that runs past its parent's end: only [90, 100] counts.
		{Name: "late", Parent: 0, StartNS: 90, EndNS: 130},
		// A grandchild takes from its own parent, not from root.
		{Name: "grand", Parent: 1, StartNS: 15, EndNS: 20},
		// A child wholly inside a sibling adds nothing to the union.
		{Name: "child", Parent: 0, StartNS: 35, EndNS: 38, N: 1},
	}
	got := selfTimes(spans)

	// root: 100 - (|[10,60]| + |[90,100]|) = 100 - 60 = 40.
	if r := got["root"]; r.SelfNS != 40 || r.TotalNS != 100 || r.Count != 1 {
		t.Errorf("root = %+v, want self 40 of 100", r)
	}
	// children: durations 30 + 30 + 3 = 63; the first loses 5 to its child.
	if c := got["child"]; c.TotalNS != 63 || c.SelfNS != 58 || c.Count != 3 || c.N != 3 {
		t.Errorf("child = %+v, want total 63, self 58, count 3, n 3", c)
	}
	if g := got["grand"]; g.SelfNS != 5 {
		t.Errorf("grand = %+v, want self 5", g)
	}
	if l := got["late"]; l.SelfNS != 40 {
		t.Errorf("late = %+v, want self 40 (its own full duration)", l)
	}
}

func TestNilRecorderIsTracingOff(t *testing.T) {
	var r *recorder
	i := r.begin("x", -1, 0)
	r.end(i, 1)
	if i != -1 || r.snapshot() != nil {
		t.Errorf("nil recorder recorded something: index %d", i)
	}
	if err := r.write(t.TempDir()+"/never", "w"); err != nil {
		t.Errorf("nil recorder write: %v", err)
	}
}

func TestRecorderParentsAndCounts(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, 0)
	kid := r.begin("kid", root, 7)
	r.end(kid, 3)
	r.end(root, 0)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].ID != 7 || s[1].N != 3 {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].EndNS < s[1].EndNS || s[1].StartNS < s[0].StartNS {
		t.Errorf("child not nested in parent: %+v", s)
	}
}

package simcluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"netclone/internal/congestion"
	"netclone/internal/faults"
	"netclone/internal/workload"
)

// buildEveryNodeKind builds one cluster holding every kind of node —
// two ToRs, servers, the client population, two LÆDGE coordinators, a
// fault controller and a congestion controller — with the given number
// of clients. Nothing is run.
func buildEveryNodeKind(t *testing.T, clients int) *cluster {
	t.Helper()
	cfg, err := Config{
		Scheme:          LAEDGE,
		NumCoordinators: 2,
		NumClients:      clients,
		Workers:         []int{2, 2, 2, 2},
		Service:         workload.Exp(25),
		OfferedRPS:      1e5,
		DurationNS:      1e6,
		Seed:            1,
		Faults:          faults.New(faults.ServerCrash(0, time.Millisecond/2, time.Millisecond)),
		// One slot per port: the congestion model keeps a port per client.
		Congestion: congestion.New().WithLinkRate(1).WithQueueCap(1).WithMarkThreshold(0),
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	// Validation refuses LÆDGE on a fabric (its coordinator tier is
	// single-rack), so the second rack joins after it. build assembles
	// the shape regardless.
	cfg = twoRack(cfg)
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.topo.Racks != 2 || len(c.coords) != 2 || c.faults == nil || c.cong == nil || len(c.clients) != clients {
		t.Fatalf("cluster lacks a node kind: %d racks, %d coordinators, faults %v, congestion %v, %d clients",
			c.topo.Racks, len(c.coords), c.faults != nil, c.cong != nil, len(c.clients))
	}
	return c
}

// TestOneHandlerType checks what the engine was handed by a cluster
// holding every kind of node: every registered handler is a *node,
// handler ID i is exactly the h field of the receiver whose hid is i,
// and the client population is one registration — the count is the
// same at 1,600 clients and at 102,400. A node that registers itself,
// or anything else, would bring back a varied call target on the
// engine's per-event interface call (events.go); a registration per
// client would bring back a handler-table entry per client.
func TestOneHandlerType(t *testing.T) {
	var counts []int
	for _, clients := range []int{1600, 102400} {
		c := buildEveryNodeKind(t, clients)
		counts = append(counts, checkRegistrations(t, c))
		c.release()
	}
	if counts[0] != counts[1] {
		t.Errorf("the engine holds %d handlers with 1,600 clients and %d with 102,400, want the same", counts[0], counts[1])
	}
}

// checkRegistrations holds c's engine registrations to the one-type
// rule and returns how many there are.
func checkRegistrations(t *testing.T, c *cluster) int {
	t.Helper()
	type reg struct {
		name string
		h    *node
		hid  int32
		self any
	}
	var regs []reg
	for _, s := range c.tors {
		regs = append(regs, reg{"switch", &s.h, s.hid, s})
	}
	for _, s := range c.servers {
		regs = append(regs, reg{"server", &s.h, s.hid, s})
	}
	regs = append(regs, reg{"client population", &c.cliH, c.cliHid, c})
	for _, co := range c.coords {
		regs = append(regs, reg{"coordinator", &co.h, co.hid, co})
	}
	regs = append(regs,
		reg{"fault controller", &c.faults.h, c.faults.hid, c.faults},
		reg{"congestion controller", &c.cong.h, c.cong.hid, c.cong})

	// The engine keeps its registrations unexported; reflection reads
	// their dynamic types and addresses without touching the values.
	hs := reflect.ValueOf(c.eng).Elem().FieldByName("handlers")
	if !hs.IsValid() {
		t.Fatal("simnet.Engine has no handlers field; point this test at its registrations")
	}
	if hs.Len() != len(regs) {
		t.Errorf("engine holds %d handlers, the cluster has %d receivers", hs.Len(), len(regs))
	}
	nodeType := reflect.TypeFor[*node]()
	for i := 0; i < hs.Len(); i++ {
		if typ := hs.Index(i).Elem().Type(); typ != nodeType {
			t.Errorf("handler %d is a %v, want %v", i+1, typ, nodeType)
		}
	}
	for _, r := range regs {
		if r.hid < 1 || int(r.hid) > hs.Len() {
			t.Errorf("%s has handler ID %d, outside [1, %d]", r.name, r.hid, hs.Len())
			continue
		}
		if hs.Index(int(r.hid)-1).Elem().Pointer() != reflect.ValueOf(r.h).Pointer() {
			t.Errorf("handler %d is not the h field of the %s that holds its ID", r.hid, r.name)
		}
		if r.h.self != r.self {
			t.Errorf("the %s's h.self (a %T) is not the %s itself", r.name, r.h.self, r.name)
		}
	}
	return hs.Len()
}

// eventMethods is the receiver method every event kind is meant to
// reach. A new kind needs a row here before TestEventKindsReachTheirMethods
// passes.
var eventMethods = map[string]string{
	"evSwFromClient":      "switchNode.fromClient",
	"evSwFromServer":      "switchNode.fromServer",
	"evSwTransitRequest":  "switchNode.transitRequest",
	"evSwTransitResponse": "switchNode.transitResponse",
	"evSwRecirculate":     "switchNode.recirculate",
	"evSwCoordToServer":   "switchNode.coordToServer",
	"evSwCoordToClient":   "switchNode.coordToClient",
	"evSrvFinish":         "server.finish",
	"evCliGenerate":       "cluster.arrive",
	"evCoArriveRequest":   "coordinator.arriveRequest",
	"evCoDispatch":        "coordinator.dispatch",
	"evCoArriveResponse":  "coordinator.arriveResponse",
	"evCoResponse":        "coordinator.onResponse",
	"evCoTxServer":        "coordinator.transmit",
	"evCoTxClient":        "coordinator.transmit",
	"evFaultTrans":        "faultCtl.fire",
	"evPortDepart":        "congCtl.depart",
}

// TestEventKindsReachTheirMethods reads the package source: node.OnEvent
// must be the only OnEvent method outside the tests, and each constant
// of the event-kind enum must have a case in it that calls its intended
// method on the receiver type that method belongs to — a client method
// on the client x indexes. Then it runs the client kinds, to see each
// one reach the client its x names.
func TestEventKindsReachTheirMethods(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var onEvent []*ast.FuncDecl
	var kinds []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && d.Name.Name == "OnEvent" {
					onEvent = append(onEvent, d)
				}
			case *ast.GenDecl:
				if name != "events.go" || d.Tok != token.CONST {
					continue
				}
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						kinds = append(kinds, id.Name)
					}
				}
			}
		}
	}
	if len(onEvent) != 1 {
		for _, d := range onEvent {
			t.Errorf("OnEvent method at %s", fset.Position(d.Pos()))
		}
		t.Fatalf("%d OnEvent methods outside the tests, want exactly node.OnEvent", len(onEvent))
	}
	fn := onEvent[0]
	if recv := typeName(fn.Recv.List[0].Type); recv != "*node" {
		t.Fatalf("the OnEvent method is on %s, want *node", recv)
	}

	got := map[string]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if id, ok := e.(*ast.Ident); ok {
				got[id.Name] = calledMethod(cc.Body)
			}
		}
		return false
	})
	if len(kinds) != len(eventMethods) {
		t.Errorf("events.go declares %d event kinds, eventMethods lists %d", len(kinds), len(eventMethods))
	}
	for _, k := range kinds {
		want, ok := eventMethods[k]
		switch {
		case !ok:
			t.Errorf("%s has no row in eventMethods", k)
		case got[k] == "":
			t.Errorf("%s: node.OnEvent has no case calling one method on n.self for it", k)
		case got[k] != want:
			t.Errorf("%s reaches %s, want %s", k, got[k], want)
		}
	}
	checkClientEventsReachTheirClient(t)
}

// checkClientEventsReachTheirClient delivers the client event kind,
// an arrival, through the engine with x = k and requires client k, and
// no other, to act on it: the client handler stands for the whole
// population, so the index in x is all that routes a client event.
func checkClientEventsReachTheirClient(t *testing.T) {
	t.Helper()
	cfg := fastConfig(NetClone)
	cfg.NumClients = 8
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	const k = 5
	// The arrival runs at the current time; everything it schedules
	// lies later and stays queued.
	c.eng.Schedule(c.eng.Now(), c.cliHid, evCliGenerate, nil, k)
	c.eng.RunUntil(c.eng.Now())
	for i := range c.clients {
		if got := c.clients[i].nextSeq == 1; got != (i == k) {
			t.Errorf("evCliGenerate with x = %d: client %d issued a request = %v, want %v", k, i, got, i == k)
		}
	}
}

// calledMethod returns "T.m" when a case body is the single statement
// n.self.(*T).m(...), "client.m" when it is
// n.self.(*cluster).clients[x].m(...) — a client event names its client
// by index in x — and "" otherwise.
func calledMethod(body []ast.Stmt) string {
	if len(body) != 1 {
		return ""
	}
	es, ok := body[0].(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv, indexed := sel.X, false
	if ix, ok := recv.(*ast.IndexExpr); ok {
		id, ok := ix.Index.(*ast.Ident)
		field, ok2 := ix.X.(*ast.SelectorExpr)
		if !ok || id.Name != "x" || !ok2 || field.Sel.Name != "clients" {
			return ""
		}
		recv, indexed = field.X, true
	}
	ta, ok := recv.(*ast.TypeAssertExpr)
	if !ok {
		return ""
	}
	if x, ok := ta.X.(*ast.SelectorExpr); !ok || x.Sel.Name != "self" {
		return ""
	}
	typ := strings.TrimPrefix(typeName(ta.Type), "*")
	if indexed {
		if typ != "cluster" {
			return ""
		}
		typ = "client"
	}
	return typ + "." + sel.Sel.Name
}

// typeName renders a receiver or asserted type expression: T or *T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + typeName(e.X)
	}
	return ""
}

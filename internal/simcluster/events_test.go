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

	"netclone/internal/faults"
	"netclone/internal/workload"
)

// TestOneHandlerType builds one cluster holding every kind of node —
// two ToRs, servers, clients, two LÆDGE coordinators, a fault
// controller and a congestion controller — and checks what the engine
// was handed: every registered handler is a *node, and handler ID i is
// exactly the h field of the node whose hid is i. A node that registers
// itself, or anything else, would bring back a varied call target on
// the engine's per-event interface call (events.go).
func TestOneHandlerType(t *testing.T) {
	cfg, err := Config{
		Scheme:          LAEDGE,
		NumCoordinators: 2,
		Workers:         []int{2, 2, 2, 2},
		Service:         workload.Exp(25),
		OfferedRPS:      1e5,
		DurationNS:      1e6,
		Seed:            1,
		Faults:          faults.New(faults.ServerCrash(0, time.Millisecond/2, time.Millisecond)),
		Congestion:      congTestSpec(),
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	// Validation refuses LÆDGE on a fabric (its coordinator tier is
	// single-rack), so the second rack joins after it. build assembles
	// the shape regardless, and this test runs nothing.
	cfg = twoRack(cfg)
	c, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	if c.topo.Racks != 2 || len(c.coords) != 2 || c.faults == nil || c.cong == nil {
		t.Fatalf("cluster lacks a node kind: %d racks, %d coordinators, faults %v, congestion %v",
			c.topo.Racks, len(c.coords), c.faults != nil, c.cong != nil)
	}

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
	for _, cl := range c.clients {
		regs = append(regs, reg{"client", &cl.h, cl.hid, cl})
	}
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
		t.Errorf("engine holds %d handlers, the cluster has %d nodes", hs.Len(), len(regs))
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
	"evSrvOnRequest":      "server.onRequest",
	"evSrvDispatch":       "server.dispatch",
	"evSrvFinish":         "server.finish",
	"evCliGenerate":       "client.generate",
	"evCliOnResponse":     "client.onResponse",
	"evCliRxHit":          "client.rxFinishHit",
	"evCliRxMiss":         "client.rxFinishMiss",
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
// method on the receiver type that method belongs to.
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
}

// calledMethod returns "T.m" when a case body is the single statement
// n.self.(*T).m(...), and "" otherwise.
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
	ta, ok := sel.X.(*ast.TypeAssertExpr)
	if !ok {
		return ""
	}
	if x, ok := ta.X.(*ast.SelectorExpr); !ok || x.Sel.Name != "self" {
		return ""
	}
	return strings.TrimPrefix(typeName(ta.Type), "*") + "." + sel.Sel.Name
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

package simcluster

import "netclone/internal/simnet"

// Event dispatch (DESIGN.md §6, "One handler type"). Every hot
// scheduling site in the cluster maps 1:1 onto one typed event kind
// below, and each kind is bound to exactly one receiver type, so a
// single enum covers the whole cluster — and a single switch,
// node.OnEvent, dispatches it.
//
// Every receiver — ToR switch, server, LÆDGE coordinator, fault
// controller, congestion controller — registers the same concrete
// simnet.Handler, *node, and the client population registers one more
// between them (cluster.cliH), each client event naming its client by
// index in x: the registrations stay a fixed handful at any number of
// clients. The engine makes one interface call per event;
// with one dynamic type behind every handler ID that call always has
// the same target, which the CPU predicts, and the kind switch is the
// one indirect branch left to mispredict per event. Per-type handlers
// changed the call target from event to event and then switched on the
// kind again: two hard-to-predict indirect branches on most events.
// TestOneHandlerType checks that every registration is a *node, and
// TestEventKindsReachTheirMethods that every kind reaches its intended
// method — a client kind, the client its x names.
const (
	// switchNode events. arg = *packet; x = destination index where noted.
	evSwFromClient      uint8 = iota // request arrives from a client NIC
	evSwFromServer                   // response arrives from a worker server
	evSwTransitRequest               // server-side ToR transit of a stamped request; x = dst server
	evSwTransitResponse              // server-side ToR transit of a response
	evSwRecirculate                  // clone re-enters the ingress pipeline
	evSwCoordToServer                // coordinator dispatch arrives at the switch; x = dst server
	evSwCoordToClient                // coordinator response arrives at the switch; x = dst client

	// server events. arg = *packet. A server's pool is arithmetic and
	// the hop that delivers a request admits it (server.arrive): a
	// finish is its only event.
	evSrvFinish // worker finished executing the request; x = its virtual time (vtRanks)

	// client events. arg = nil; x = the client's index in
	// cluster.clients. A client's sender and receiver are busy-until
	// arithmetic (client.sendPacket, client.receive): an arrival is its
	// only event.
	evCliGenerate // open-loop arrival: create the next request

	// coordinator events (LÆDGE). arg = *packet.
	evCoArriveRequest  // request arrives at the coordinator NIC
	evCoDispatch       // CPU slot done: route the request
	evCoArriveResponse // response arrives at the coordinator NIC
	evCoResponse       // CPU slot done: process the response
	evCoTxServer       // CPU slot done: transmit dispatch to the switch; x = dst server
	evCoTxClient       // CPU slot done: transmit response to the switch; x = dst client

	// faultCtl events. arg = nil; x = transition index. Fault begin/end
	// transitions are cold (a handful per run) but still typed so plan
	// execution allocates nothing.
	evFaultTrans // apply fault transition x

	// congCtl events. arg = nil; x = egress-port index. One kind covers
	// the whole congestion model: a port's head-of-line packet finished
	// serializing onto the link and departs (congestion.go).
	evPortDepart // serve completion at egress port x
)

// node is the cluster's one simnet.Handler type. Each receiver embeds
// one as its h field and registers it through register; self points
// back at the receiver — the cluster, for the client population — and
// the event kind says which concrete type that is. h is a named field, not an embedding, so no receiver's
// method set picks up OnEvent and none can be registered directly.
type node struct{ self any }

// register binds n to its receiver and returns the engine handler ID.
func (n *node) register(eng *simnet.Engine, self any) int32 {
	n.self = self
	return eng.Register(n)
}

// OnEvent calls the method the kind names on the receiver n belongs to.
func (n *node) OnEvent(kind uint8, arg any, x int64) {
	switch kind {
	case evSwFromClient:
		n.self.(*switchNode).fromClient(arg.(*packet))
	case evSwFromServer:
		n.self.(*switchNode).fromServer(arg.(*packet))
	case evSwTransitRequest:
		n.self.(*switchNode).transitRequest(arg.(*packet), int(x))
	case evSwTransitResponse:
		n.self.(*switchNode).transitResponse(arg.(*packet))
	case evSwRecirculate:
		n.self.(*switchNode).recirculate(arg.(*packet))
	case evSwCoordToServer:
		n.self.(*switchNode).coordToServer(arg.(*packet), int(x))
	case evSwCoordToClient:
		n.self.(*switchNode).coordToClient(arg.(*packet), int(x))

	case evSrvFinish:
		n.self.(*server).finish(arg.(*packet), x)

	case evCliGenerate:
		n.self.(*cluster).arrive(x)

	case evCoArriveRequest:
		n.self.(*coordinator).arriveRequest(arg.(*packet))
	case evCoDispatch:
		n.self.(*coordinator).dispatch(arg.(*packet))
	case evCoArriveResponse:
		n.self.(*coordinator).arriveResponse(arg.(*packet))
	case evCoResponse:
		n.self.(*coordinator).onResponse(arg.(*packet))
	case evCoTxServer:
		n.self.(*coordinator).transmit(arg.(*packet), evSwCoordToServer, x)
	case evCoTxClient:
		n.self.(*coordinator).transmit(arg.(*packet), evSwCoordToClient, x)

	case evFaultTrans:
		n.self.(*faultCtl).fire(x)

	case evPortDepart:
		n.self.(*congCtl).depart(x)
	}
}

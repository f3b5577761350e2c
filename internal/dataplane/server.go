package dataplane

import "netclone/internal/wire"

// AdmitRequest is the server's stale-clone guard (§3.4), which both
// backends' servers call: with guard on, a clone that finds requests
// waiting is dropped, because the switch cloned it on a stale idle
// state. Every other request is admitted.
func AdmitRequest(clo wire.CloState, waiting int, guard bool) bool {
	return !guard || clo != wire.CloClone || waiting == 0
}

// ServerState is the load a response piggybacks (§3.3), which both
// backends' servers call: the larger of the requests waiting in the
// server's queue and its backlog, saturated at the State field's
// 65,535. The socket is part of the queue: a socket server drains its
// socket in bursts, so the last response of a burst sees the queue it
// has just drained while the next burst already waits in the socket,
// and it passes its latest burst's excess over its workers as the
// backlog. That excess is never positive for bursts of one (the
// portable transport), and the simulator's server, which has no
// socket, passes 0; there the signal is the queue alone.
func ServerState(waiting, backlog int) uint16 {
	return uint16(min(max(waiting, backlog), 65535))
}

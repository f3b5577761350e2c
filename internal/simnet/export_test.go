package simnet

// Step runs the earliest pending event and returns true, or returns
// false if none remain: the one-event view of the burst machinery, and
// the order oracle the burst tests hold the batched drivers to.
func (e *Engine) Step() bool {
	if !e.ensureBurst() {
		return false
	}
	i := e.batch[e.batchPos]
	e.batchPos++
	e.dispatch(i)
	e.endBurstIfDone()
	return true
}

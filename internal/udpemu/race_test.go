//go:build race

package udpemu

// The race detector slows every node several-fold, so a 16k req/s
// open loop saturates the cluster it measures.
func init() { raceDetector = true }

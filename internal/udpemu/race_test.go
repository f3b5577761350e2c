//go:build race

package udpemu

// The race detector slows every send several-fold, so the open-loop
// pacer's and the fabric delay's timing tests skip themselves.
func init() { raceDetector = true }

//go:build race

package udpemu

// The race detector slows every send several-fold, so the open-loop
// pacer's timing test skips itself.
func init() { raceDetector = true }

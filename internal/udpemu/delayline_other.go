//go:build !linux

package udpemu

import "time"

// lockDelayThread does nothing off Linux: the delay line waits on the
// runtime timer there.
func lockDelayThread() {}

// sleepUntil waits on the runtime timer until due.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }

package udpemu

import (
	"errors"
	"runtime"
	"syscall"
	"time"
)

// lockDelayThread pins the calling goroutine to its OS thread for the
// rest of its life and lowers that thread's timer slack to 1 ns, so its
// waits end within microseconds of their due time. The goroutine never
// unlocks: when it exits the runtime ends the thread, and the lowered
// slack goes with it instead of reaching other goroutines.
func lockDelayThread() {
	runtime.LockOSThread()
	// Best effort: a kernel that refuses keeps the default 50 µs slack,
	// which only widens each wait.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
}

// sleepUntil blocks the calling thread in nanosleep until due. The
// runtime timer behind time.Sleep wakes through the netpoller, which
// waits in whole milliseconds, so a 20 µs sleep there lasts about 1 ms;
// nanosleep wakes on the kernel's high-resolution timer. An interrupted
// wait resumes with its remainder, so a wait never undershoots.
func sleepUntil(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); !errors.Is(err, syscall.EINTR) {
			return
		}
		ts = rem
	}
}

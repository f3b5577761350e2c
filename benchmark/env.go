package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every result file: a number measured on
// two cores of one model is not comparable with one measured on eight
// of another, and a host that was busy when the run started explains a
// wide spread better than the code does.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Load1      float64 `json:"load1_at_start"`
	NoisyHost  bool    `json:"noisy_host"`
	// EmuIO is the I/O discipline IOAuto resolved to on this host
	// ("batched" or "portable"); empty until an emu workload has started
	// a cluster.
	EmuIO string `json:"emu_io,omitempty"`
}

func currentEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f := strings.Fields(readFile("/proc/loadavg")); len(f) > 0 {
		env.Load1, _ = strconv.ParseFloat(f[0], 64) // unreadable: recorded as 0
	}
	env.NoisyHost = env.Load1 > 0.5*float64(env.NProc)
	return env
}

// readFile returns a file's contents, empty when it cannot be read
// (the /proc files are Linux only; elsewhere the fields stay empty).
func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(data)
}

// procField extracts the first "key : value" line of a /proc file.
func procField(path, key string) string {
	for _, line := range strings.Split(readFile(path), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	ctxsw   int64         // voluntary + involuntary context switches
	mallocs uint64
}

// processUsage samples getrusage. Allocation counts are read only when
// asked for: runtime.ReadMemStats stops the world, which an untraced
// measurement must not pay for.
func processUsage(withAllocs bool) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	u := usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw: int64(ru.Nvcsw + ru.Nivcsw),
	}
	if withAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.mallocs = ms.Mallocs
	}
	return u
}

// procMetrics reports the process-wide memory and collector figures of
// a finished workload run.
func procMetrics() (peakRSSMB, gcCycles, gcPauseMS float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as above
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) / 1024, float64(ms.NumGC), float64(ms.PauseTotalNs) / 1e6
}

// udpRcvbufErrors reads the kernel's count of UDP datagrams dropped
// because a socket's receive buffer was full (0 where /proc/net/snmp
// does not exist). It is host-wide; on the loopback-only hosts the
// benchmark runs on, the benchmark's sockets are the only busy ones.
func udpRcvbufErrors() int64 {
	var names []string
	for _, line := range strings.Split(readFile("/proc/net/snmp"), "\n") {
		if !strings.HasPrefix(line, "Udp:") {
			continue
		}
		fields := strings.Fields(line)
		if names == nil {
			names = fields
			continue
		}
		for i, name := range names {
			if name == "RcvbufErrors" && i < len(fields) {
				n, _ := strconv.ParseInt(fields[i], 10, 64) // unparsable: reported as 0
				return n
			}
		}
	}
	return 0
}

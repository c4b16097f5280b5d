package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The reference host is a two-vCPU guest on a shared machine. When the
// neighbours are busy the hypervisor takes 20-45% of the CPU time the guest
// asks for (the "steal" column of /proc/stat) and a 2.1 s batch pass takes
// 3.4-5.8 s of wall time, while wall time minus the stolen share stays
// within a few percent. Every timing the benchmark gates is therefore read
// on a clock that stops while the guest is stolen from: wall time scaled by
// the share of the CPU time asked for that was delivered in the interval.
// On a host of one's own nothing is stolen and it is wall time exactly.

// cpuTicks is the system-wide CPU accounting at one instant, in clock ticks.
type cpuTicks struct{ busy, steal int64 }

// readCPU reads the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
// Where there is no such file nothing is ever stolen.
func readCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPU(line)
}

func parseCPU(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		n, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = n
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// delivered is the share of the CPU time asked for between a and b that
// the guest got: 1 when nothing was stolen.
func delivered(a, b cpuTicks) float64 {
	busy, steal := float64(b.busy-a.busy), float64(b.steal-a.steal)
	if steal <= 0 || busy+steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// stopwatch times an interval on both clocks.
type stopwatch struct {
	t0  time.Time
	cpu cpuTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPU()} }

// stop returns the wall time since the start and the share of it the guest
// was running for; wall*share is the time on the unstolen clock.
func (s stopwatch) stop() (wall time.Duration, share float64) {
	return time.Since(s.t0), delivered(s.cpu, readCPU())
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// processCPU is the CPU time this process has used, user and system, all
// threads. Set-up is timed on it: the wall time of a set-up on the reference
// host is mostly fsync latency of a shared disk, which ranged from 0.3 s to
// 11 s for the same 36 MB container within one hour, while the CPU time of
// indexing, encoding and checksumming repeats. Work moved into set-up is CPU
// work and shows here.
func processCPU() time.Duration { return cpuTime(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time of the calling thread; the caller has locked
// its goroutine to it.
func threadCPU() time.Duration { return cpuTime(syscall.RUSAGE_THREAD) }

func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

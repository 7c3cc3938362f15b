package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's clocks. This sandbox's host steals the virtual CPUs for
// stretches that last from milliseconds to minutes (a 16 ms CPU-bound probe
// read 15–40 ms of wall for a steady 15.5–18 ms of CPU time, with the
// kernel's steal counter accounting for the gap), so raw wall time of the
// same work moves by 2x between runs. Two clocks take the steal back out
// (what the host does to the time that is left is probe.go's business); raw
// wall is recorded beside every value they produce.
//
// The decorators are reachable from core.Step through nyx-vet's
// class-hierarchy call graph (they implement core.SlotExecutor,
// guest.Target and store.Storer), so an unannotated time.Now anywhere else
// in this package fails TestRepoIsClean with "core transitively reads the
// wall clock". now is the only place that reads it.

// now reads the wall clock.
//
//nyx:wallclock the benchmark measures wall time from outside; nothing it reads steers fuzzing
func now() time.Time { return time.Now() }

// onCPU is the time the calling thread has spent running: wall time minus
// every moment the thread was not on a CPU, host steal included. It times
// work that runs on the benchmark's own goroutine (solo fuzzing, set-up,
// checkpoint, resume, replay); main pins that goroutine to its thread.
func onCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTicks is one reading of the machine-wide CPU counters in /proc/stat.
type cpuTicks struct{ busy, steal uint64 }

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	n := func(i int) uint64 { v, _ := strconv.ParseUint(f[i], 10, 64); return v }
	return cpuTicks{busy: n(1) + n(2) + n(3) + n(6) + n(7), steal: n(8)}
}

// stealShare is the share of the CPU time the machine wanted between two
// readings that the host withheld. Work the engine fans out to its own
// goroutines (a campaign's RunFor) cannot be timed on a thread clock; its
// wall time is scaled by one minus this share instead. The counters tick at
// 100 Hz, so the share is only meaningful over a whole repetition.
func stealShare(from, to cpuTicks) float64 {
	busy, steal := float64(to.busy-from.busy), float64(to.steal-from.steal)
	if busy+steal <= 0 {
		return 0
	}
	return steal / (busy + steal)
}

// watch times one interval on both clocks.
type watch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() watch { return watch{now(), onCPU()} }

// stop returns the interval's raw wall time and the calling thread's
// on-CPU time within it.
func (w watch) stop() (wall, own time.Duration) { return now().Sub(w.wall), onCPU() - w.cpu }

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The gated time metrics are CPU time, not wall time. On a virtual
// machine the hypervisor takes vCPUs away for stretches (steal time);
// that stretches wall time by 30% or more from one run to the next, but
// the kernel leaves it out of a task's CPU time. The clocks are read
// with clock_gettime, which counts to the nanosecond: getrusage reports
// a running thread's time as of its last scheduler tick, which is
// milliseconds stale and too coarse for the reference kernel's samples.

// Linux clock IDs (syscall does not export them).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime returns the CPU time of the whole process.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPUTime returns the CPU time of the calling OS thread; the
// caller must be locked to its thread.
func threadCPUTime() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

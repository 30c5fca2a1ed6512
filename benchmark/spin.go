package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// schedIdle is SCHED_IDLE from <sched.h>: run only when nothing else wants
// the CPU.
const schedIdle = 5

// spinMain implements "benchmark spin", the harness's own child: one thread
// per allowed CPU, pinned to it, scheduled SCHED_IDLE, spinning until killed.
//
// The reference box is a 2-vCPU microVM on a shared host, and a vCPU that
// goes idle comes back slow: a fixed CPU loop takes 640 ms in its first second
// after a pause and 310 ms from then on, and at the open-loop rates (a fifth
// of capacity) the server keeps falling into that state. Measured on
// serve-warm, three runs each way: recommend_p50_us 244 / 227 / 301 µs
// without the spinners against 168 / 164 / 163 µs with them, recommend_rps
// 14.3k / 14.0k / 10.5k against 15.0k / 14.0k / 15.1k. What moves between
// those runs is the host's power management, not the program; holding the
// vCPUs out of idle is the in-guest equivalent of pinning the frequency
// governor before benchmarking. An idle-priority thread yields to any
// runnable thread of the server at once, so it takes no CPU from the
// measured work.
func spinMain(args []string) int {
	// The CPUs come from the parent: this child inherits the servers' mask,
	// not the harness's.
	cpus := make([]int, len(args))
	for i, a := range args {
		cpu, err := strconv.Atoi(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark spin: usage: benchmark spin CPU...")
			return 2
		}
		cpus[i] = cpu
	}
	ready := make(chan error, len(cpus)) // one send per spinner thread
	for _, cpu := range cpus {
		go func() {
			runtime.LockOSThread() // the policy and the affinity belong to this thread
			param := struct{ priority int32 }{0}
			if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				ready <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
				return
			}
			if err := pinThread([]int{cpu}); err != nil {
				ready <- err
				return
			}
			ready <- nil
			for { //nolint:staticcheck // the point of this thread is to never let its CPU idle
			}
		}()
	}
	for range cpus {
		if err := <-ready; err != nil {
			// A spinner at normal priority would compete with the server:
			// better none at all.
			fmt.Fprintln(os.Stderr, "benchmark spin:", err)
			return 1
		}
	}
	select {} // until SIGTERM
}

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the harness started with, in ascending order
// (nil when the kernel will not say). It is read once, before any thread of
// the harness narrows its own mask.
var allowedCPUs = sync.OnceValue(func() []int {
	var mask cpuMask
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
})

// pinThread confines the calling thread — and every process it starts from
// now on — to cpus; an empty list pins nothing. The caller has locked its
// goroutine to the thread.
func pinThread(cpus []int) error {
	if len(cpus) == 0 {
		return nil
	}
	var mask cpuMask
	for _, cpu := range cpus {
		mask[cpu/64] |= 1 << (cpu % 64)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%v): %w", cpus, errno)
	}
	return nil
}

// The harness splits the machine in two: its connection threads get the first
// CPU, the programs under test get all the others. Left to the scheduler, a
// request ran in one of two modes — client and server thread on one CPU
// (p50 ≈ 65 µs closed-loop) or on two (≈ 130 µs) — and which one a window got
// was the largest single source of run-to-run spread: with one reader and one
// writer connection the quartile distance between one-second windows of the
// same run was 15–49% of the median unsplit and 9–20% split. The server loses
// nothing it had: with the generator's two threads busy it never held more
// than one of two CPUs (closed-loop read throughput is the same either way).
// With a single CPU there is nothing to split and both functions return nil.
func clientCPUs() []int {
	if cpus := allowedCPUs(); len(cpus) >= 2 {
		return cpus[:1]
	}
	return nil
}

func serverCPUs() []int {
	if cpus := allowedCPUs(); len(cpus) >= 2 {
		return cpus[1:]
	}
	return nil
}

// startSpinners launches the spin child. Failing to is not fatal: the run is
// noisier, and says so.
func startSpinners(outRoot string, log func(string, ...any)) *proc {
	self, err := os.Executable()
	if err != nil {
		log("idle spinners not started: %v", err)
		return nil
	}
	args := []string{"spin"}
	for _, cpu := range allowedCPUs() {
		args = append(args, strconv.Itoa(cpu))
	}
	p, err := startProc("spin", self, filepath.Join(outRoot, "spin.log"), args...)
	if err != nil {
		log("idle spinners not started: %v", err)
		return nil
	}
	return p
}

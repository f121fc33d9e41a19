package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU confines this process — every thread it has now, and so
// every thread and child process it starts later — to the first CPU it
// may run on, with GOMAXPROCS 1, and returns a function that undoes it.
//
// The daemon workloads are closed loops, a client and a daemon waiting
// on each other. Left to the scheduler, their wakeups cross CPUs in
// some runs and not in others, which made one seed's throughput land
// in two clusters 9% apart on a 2-vCPU VM; on one CPU the round trip is
// the sum of client, kernel and daemon work, every run.
func pinToOneCPU() (restore func(), err error) {
	var orig cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &orig); err != nil {
		return nil, err
	}
	var one cpuMask
	for i, w := range orig {
		if w != 0 {
			one[i] = w & -w // lowest set bit
			break
		}
	}
	if err := setAllThreads(&one); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		if err := setAllThreads(&orig); err != nil {
			warnf("restore CPU affinity: %v", err)
		}
	}, nil
}

// setAllThreads applies mask to every thread of the process. Two passes
// catch a thread that an unmasked thread started during the first.
func setAllThreads(mask *cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, mask); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

func schedAffinity(trap uintptr, tid int, mask *cpuMask) error {
	_, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	if e != 0 {
		return e
	}
	return nil
}

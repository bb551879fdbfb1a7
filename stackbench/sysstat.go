package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the Go runtime, this process's CPU time and
// the machine's CPU accounting.
type procSample struct {
	mallocs, allocBytes uint64
	gcs                 uint32
	cpu                 time.Duration
	steal, total        uint64 // /proc/stat jiffies; zero where unavailable
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: ms.NumGC}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal, s.total = cpuJiffies()
	return s
}

// cpuJiffies reads the aggregate "cpu" line of /proc/stat and returns the
// steal column and the sum of all columns.
func cpuJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (columns 9 and 10) are already inside user
		// and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

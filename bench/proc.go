package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU fields; it is
// 100 on every Linux the benchmark runs on.
const clockTick = 100

// selfCPU is the bench process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procUsage reads a process's CPU time (utime+stime of
// /proc/<pid>/stat) and peak resident set (VmHWM of
// /proc/<pid>/status). A process that is gone reads as zero.
func procUsage(pid int) (cpu time.Duration, peakRSSBytes uint64) {
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields follow the parenthesised command name, which may
		// itself hold spaces; utime and stime are fields 14 and 15.
		if i := bytes.LastIndexByte(raw, ')'); i >= 0 {
			f := strings.Fields(string(raw[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				cpu = time.Duration(ut+st) * time.Second / clockTick
			}
		}
	}
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				peakRSSBytes = kb << 10
			}
		}
	}
	return cpu, peakRSSBytes
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ). Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// usage is a process's CPU time and peak resident set.
type usage struct {
	CPU     time.Duration
	MaxRSSK int64 // KiB
}

func fromRusage(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{CPU: tv(ru.Utime) + tv(ru.Stime), MaxRSSK: int64(ru.Maxrss)}
}

// selfUsage reads the benchmark process's own rusage.
func selfUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	return fromRusage(&ru), nil
}

// exitUsage reads a waited-for child's rusage.
func exitUsage(ps *os.ProcessState) (usage, error) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return usage{}, fmt.Errorf("no rusage for pid %d", ps.Pid())
	}
	return fromRusage(ru), nil
}

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat.
// The command name sits in parentheses and may itself hold spaces or
// parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", data)
	}
	f := bytes.Fields(data[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("proc stat: bad cpu field %q", s)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// procCPU reads a live process's CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(data)
}

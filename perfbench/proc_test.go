package main

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (pl aned) (x)) S 1 4242 4242 0 -1 4194560 2136 0 0 0 123 45 0 0 20 0 9 0 1234 1000 300 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil || got != 168*clockTick {
		t.Fatalf("parseProcStat = %v, %v; want %v", got, err, 168*clockTick)
	}
	for _, bad := range []string{"", "4242 (planed S 1", "4242 (planed) S 1 2 3", "1 (p) S 1 1 1 0 -1 0 0 0 0 0 x 45 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

// burn spends at least d of CPU time on this goroutine.
func burn(d time.Duration) {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x += i
		}
	}
	_ = x
}

func TestCPUReadersSeeWork(t *testing.T) {
	before, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	procBefore, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	burn(100 * time.Millisecond)
	after, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	procAfter, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after.CPU - before.CPU; d < 80*time.Millisecond {
		t.Errorf("rusage saw %v of CPU over 100ms of work", d)
	}
	if d := procAfter - procBefore; d < 50*time.Millisecond {
		t.Errorf("/proc saw %v of CPU over 100ms of work", d)
	}
	if after.MaxRSSK <= 0 {
		t.Errorf("peak RSS %d KiB", after.MaxRSSK)
	}
}

func TestExitUsageOfChild(t *testing.T) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExitUsageOfChild$")
	cmd.Env = append(os.Environ(), "PERFBENCH_CHILD=1")
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	ru, err := exitUsage(cmd.ProcessState)
	if err != nil {
		t.Fatal(err)
	}
	if ru.MaxRSSK <= 0 || ru.CPU < 0 {
		t.Errorf("child usage = %+v", ru)
	}
}

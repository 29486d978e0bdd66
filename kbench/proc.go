package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// parseVmHWM returns the VmHWM (peak resident set) line of a
// /proc/<pid>/status file, in KiB.
func parseVmHWM(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMiB reads this process's VmHWM.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := parseVmHWM(f)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

const allocsMetric = "/gc/heap/allocs:bytes"

// heapAllocs reads the cumulative Go heap bytes allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: allocsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocPerOp is the allocation delta of a timed phase, less the
// background work's share, per op, in KiB.
func allocPerOp(before, after, background uint64, ops int) (float64, error) {
	if ops <= 0 {
		return 0, fmt.Errorf("no ops")
	}
	if after < before+background {
		return 0, fmt.Errorf("heap allocations moved %d -> %d, less than the %d bytes of background work", before, after, background)
	}
	return float64(after-before-background) / float64(ops) / 1024, nil
}

// clockTicks is USER_HZ, the unit of /proc/stat's counters.
const clockTicks = 100

// parseSteal returns the steal field of a /proc/stat file's aggregate
// cpu line: clock ticks the hypervisor ran something else while a
// vCPU of the virtual machine wanted to run.
func parseSteal(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("no steal field in %q", sc.Text())
		}
		return strconv.ParseUint(f[8], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no aggregate cpu line")
}

// stealTicks reads the machine's steal counter, or 0 where there is
// none, so that every window ties and all are kept.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	n, err := parseSteal(f)
	if err != nil {
		return 0
	}
	return n
}

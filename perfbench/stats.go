package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the exact nearest-rank q-quantile of the raw samples
// (sorted in place). It never exceeds the largest sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// dist summarises raw latency samples (milliseconds).
type dist struct {
	n             int
	p50, p99, max float64
	p90           float64
}

// summarize computes exact quantiles and checks their order: a quantile
// above the exact maximum, or p50 above p99, is a bug in the benchmark.
func summarize(xs []float64) (dist, error) {
	if len(xs) == 0 {
		return dist{}, fmt.Errorf("no samples")
	}
	d := dist{n: len(xs), p50: quantile(xs, 0.50), p90: quantile(xs, 0.90), p99: quantile(xs, 0.99)}
	d.max = xs[len(xs)-1]
	if !(d.p50 <= d.p90 && d.p90 <= d.p99 && d.p99 <= d.max) {
		return d, fmt.Errorf("quantile order violated: p50 %g p90 %g p99 %g max %g", d.p50, d.p90, d.p99, d.max)
	}
	return d, nil
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user plus system CPU seconds a process has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %d", pid)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %d", pid)
	}
	return float64(u+st) / clockTick, nil
}

// procStatus reads one numeric field (e.g. "VmHWM") of /proc/<pid>/status.
func procStatus(path, field string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			v := strings.Fields(rest)
			if len(v) == 0 {
				break
			}
			return strconv.ParseFloat(v[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatus(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return kb / 1024, err
}

// ctxSwitches sums voluntary and involuntary context switches over every
// thread of a process.
func ctxSwitches(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no tasks for %d", pid)
	}
	var total float64
	for _, t := range tasks {
		v, err1 := procStatus(t, "voluntary_ctxt_switches")
		n, err2 := procStatus(t, "nonvoluntary_ctxt_switches")
		if err1 == nil && err2 == nil { // a thread may exit while we read
			total += v + n
		}
	}
	return total, nil
}

// procSample reads a process's CPU seconds and context switches.
func procSample(pid int) (cpu, ctx float64, err error) {
	if cpu, err = procCPU(pid); err != nil {
		return 0, 0, err
	}
	ctx, err = ctxSwitches(pid)
	return cpu, ctx, err
}

// childAttr makes a child process die with the benchmark, so a killed run
// leaves no system under test behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// selfCPU returns the CPU seconds this benchmark process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

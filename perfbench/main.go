// Command perfbench is the repository's benchmark. It runs one workload
// against the system built from this checkout and prints, as its last line,
// one JSON object with the correctness verdict and the metrics: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
//
//	perfbench -workload fleet-tcp -seed 1 -seconds 10 -trace 0 -bin DIR
//
// DIR holds the mobieyes-server binary; run.sh builds it and this program.
// See README.md for the workloads, the metrics and what each one stresses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects a workload's metrics, failures and notes.
type run struct {
	res      result
	failures []string
	notes    []string // human-readable lines printed before the result
}

func newRun() *run { return &run{res: result{Correct: true, Metrics: map[string]metric{}}} }

func (r *run) set(name, unit string, v float64) { r.res.Metrics[name] = metric{v, unit} }

// fail records a failed correctness gate.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	self     string
	spans    string
}

func main() {
	var (
		o     options
		trace int
		child string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", devSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding the mobieyes-server binary")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans to this file")
	flag.StringVar(&child, "child", "", "internal: run as the simulation child")
	flag.Parse()
	if child == "sim" {
		if err := runSimChild(int64(o.seed), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sim child:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	self, err := os.Executable()
	if err != nil {
		die(err)
	}
	o.self = self
	if o.seconds <= 0 {
		die(fmt.Errorf("-seconds must be positive"))
	}
	if _, err := os.Stat(filepath.Join(o.bin, "mobieyes-server")); err != nil {
		die(fmt.Errorf("no server binary: %w", err))
	}

	if o.workload == "all" {
		if err := runAll(o); err != nil {
			die(err)
		}
		return
	}
	r := newRun()
	start := time.Now()
	switch {
	case o.trace && (o.workload == "sim-table1" || fleetSpecs[o.workload].name != ""):
		err = runTraced(o, r)
	case o.workload == "sim-table1":
		err = runSimWorkload(o, r)
	case fleetSpecs[o.workload].name != "":
		err = runServing(o, fleetSpecs[o.workload], r)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		die(err)
	}
	if r.res.Attempted < 1 {
		die(fmt.Errorf("no ops attempted"))
	}
	printEnv(o)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.res.Metrics[k]
		fmt.Printf("%-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("run took %.1fs\n", time.Since(start).Seconds())
	b, err := json.Marshal(r.res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(b))
}

// runAll runs every workload untraced, then every workload traced, each
// in its own process, and fails if any run fails or is incorrect.
func runAll(o options) error {
	var bad []string
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloadNames {
			fmt.Printf("== %s trace %s\n", w, trace)
			cmd := exec.Command(o.self, "-workload", w, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-bin", o.bin, "-spans", o.spans)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || !res.Correct {
				bad = append(bad, w+" trace "+trace)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed or incorrect: %s", strings.Join(bad, ", "))
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printEnv records the environment every result was measured in.
func printEnv(o options) {
	model, nproc := "unknown", 0
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "processor") {
				nproc++
			}
			if v, ok := strings.CutPrefix(line, "model name"); ok && model == "unknown" {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	spec := fleetSpecs[o.workload]
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), nproc, model, runtime.Version(), commit)
	fmt.Printf("env latency_limit_ms=%g sweep_ratio=%g lo_ops_s=%g hi_ops_s=%g dev_seed=%d held_out_seed=%d\n",
		latencyLimitMs, sweepRatio, spec.lo, spec.hi, devSeed, heldOutSeed)
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// simChild is one simulation child process, stepped over a pipe.
type simChild struct {
	cmd *exec.Cmd
	pid int
	in  io.WriteCloser
	out *bufio.Scanner
}

// startSimChild starts a child and waits until its engine is built;
// the returned duration is the set-up time.
func startSimChild(self string, seed uint64) (*simChild, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(self, "-child", "sim", "-seed", strconv.FormatUint(seed, 10))
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &simChild{cmd: cmd, pid: cmd.Process.Pid, in: in, out: bufio.NewScanner(out)}
	c.out.Buffer(make([]byte, 1<<16), 1<<20)
	if line, err := c.read(); err != nil || line != "ready" {
		c.kill()
		return nil, 0, fmt.Errorf("sim child start: %q %v", line, err)
	}
	return c, time.Since(t0), nil
}

func (c *simChild) read() (string, error) {
	if !c.out.Scan() {
		if err := c.out.Err(); err != nil {
			return "", err
		}
		return "", errors.New("sim child exited")
	}
	return c.out.Text(), nil
}

// do sends one command and waits for its "ok".
func (c *simChild) do(cmd string) error {
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return err
	}
	line, err := c.read()
	if err != nil {
		return err
	}
	if line != "ok" {
		return fmt.Errorf("sim child: %q", line)
	}
	return nil
}

// end asks for the exactness check and the report; the child then exits.
func (c *simChild) end() (simReport, error) {
	var rep simReport
	if _, err := io.WriteString(c.in, "e\n"); err != nil {
		return rep, err
	}
	line, err := c.read()
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return rep, fmt.Errorf("sim report %q: %w", line, err)
	}
	c.in.Close()
	return rep, c.cmd.Wait()
}

func (c *simChild) kill() {
	c.in.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// simPass is one timed batch of simulation steps.
type simPass struct {
	steps []float64 // step wall times, ms
	cpuS  float64   // child CPU seconds over the timed steps
	wall  time.Duration
}

// stepFor steps the child until dur has elapsed (at least simCheckSteps
// steps), timing each step from the parent.
func stepFor(c *simChild, dur time.Duration, tr *tracer) (*simPass, error) {
	p := &simPass{}
	cpu0, err := procCPU(c.pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; time.Since(t0) < dur || i < simCheckSteps; i++ {
		s := time.Now()
		if err := c.do("s"); err != nil {
			return nil, err
		}
		e := time.Now()
		p.steps = append(p.steps, ms(e.Sub(s)))
		tr.add("sim.step", uint64(i+1), -1, s, e)
	}
	p.wall = time.Since(t0)
	cpu1, err := procCPU(c.pid)
	if err != nil {
		return nil, err
	}
	p.cpuS = cpu1 - cpu0
	return p, nil
}

// checkSim runs the simulation gates: the results are exact against
// brute-force ground truth after the timed steps, and a second child of the
// same seed repeats the per-kind message counts of the first steps exactly.
func checkSim(r *run, rep simReport, twin *simChild) error {
	if rep.Exact != "" {
		r.fail("results not exact after %d steps: %s", rep.Steps, rep.Exact)
	}
	if err := twin.do("w"); err != nil {
		return err
	}
	for i := 0; i < simCheckSteps; i++ {
		if err := twin.do("s"); err != nil {
			return err
		}
	}
	trep, err := twin.end()
	if err != nil {
		return err
	}
	if !maps.Equal(trep.CheckedKinds, rep.CheckedKinds) || trep.CheckedSteps != rep.CheckedSteps {
		r.fail("message counts of the first %d steps do not repeat: %v vs %v", simCheckSteps, rep.CheckedKinds, trep.CheckedKinds)
	}
	return nil
}

// startSimChildren starts setupRepeats children, timing each set-up; the
// first two stay up (the measured one and its twin).
func startSimChildren(o options) ([]*simChild, []float64, func(), error) {
	var children []*simChild
	cleanup := func() {
		for _, c := range children {
			if c.cmd.ProcessState == nil {
				c.kill()
			}
		}
	}
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		c, d, err := startSimChild(o.self, o.seed)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		children = append(children, c)
		setups = append(setups, d.Seconds())
	}
	for _, c := range children[2:] {
		c.kill()
	}
	return children, setups, cleanup, nil
}

// runSimWorkload measures the Table-1 simulation as a batch.
func runSimWorkload(o options, r *run) error {
	children, setups, cleanup, err := startSimChildren(o)
	if err != nil {
		return err
	}
	defer cleanup()
	c := children[0]
	if err := c.do("w"); err != nil {
		return err
	}
	p, err := stepFor(c, secs(0.8*o.seconds), nil)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(c.pid)
	if err != nil {
		return err
	}
	rep, err := c.end()
	if err != nil {
		return err
	}
	if err := checkSim(r, rep, children[1]); err != nil {
		return err
	}
	steps, err := summarize(p.steps)
	if err != nil {
		return err
	}
	objSteps := float64(rep.Objects * len(p.steps))
	r.res.Attempted = int64(len(p.steps))
	if !r.res.Correct {
		r.res.Failed = int64(len(r.failures))
	}
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", rss)
	r.set("server_cpu_us_per_op.hi", "us", p.cpuS/objSteps*1e6)
	r.note("sim: %d steps of %d objects in %.2fs; step p50 %.3f p90 %.3f max %.3f ms",
		len(p.steps), rep.Objects, p.wall.Seconds(), steps.p50, steps.p90, steps.max)
	r.note("specified end-to-end, reported per layer: sim_step_ms_p50 %.4f ms, sim_step_ms_p90 %.4f ms, sim_object_steps_per_s %.6g; failed_ops_ratio %.6f",
		steps.p50, steps.p90, objSteps/p.wall.Seconds(), float64(r.res.Failed)/float64(r.res.Attempted))
	return nil
}

// traceSim is the traced run's simulation pass: the steps untraced, then
// traced, then the gates. The sim-table1 workload runs it at full length;
// the serving workloads run the minimum number of steps. It returns the
// tracing overhead on the median step time.
func traceSim(o options, r *run, tr *tracer, dur time.Duration) (float64, error) {
	children, _, cleanup, err := startSimChildren(o)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	c := children[0]
	if err := c.do("w"); err != nil {
		return 0, err
	}
	pu, err := stepFor(c, dur, nil)
	if err != nil {
		return 0, err
	}
	pt, err := stepFor(c, dur, tr)
	if err != nil {
		return 0, err
	}
	rep, err := c.end()
	if err != nil {
		return 0, err
	}
	if err := checkSim(r, rep, children[1]); err != nil {
		return 0, err
	}
	su, err := summarize(pu.steps)
	if err != nil {
		return 0, err
	}
	st, err := summarize(pt.steps)
	if err != nil {
		return 0, err
	}
	steps := float64(rep.Steps)
	cs := float64(rep.CheckedSteps)
	r.set("sim.server_ms_per_step", "ms", float64(rep.ServerNanos)/steps/1e6)
	r.set("sim.client_us_per_object_step", "us", float64(rep.ClientNanos)/steps/float64(rep.Objects)/1e3)
	r.set("sim.uplinks_per_step", "count", float64(rep.CheckedUp)/cs)
	r.set("sim.downlinks_per_step", "count", float64(rep.CheckedDown)/cs)
	r.set("sim.avg_lqt_size", "count", rep.CheckedLQT)
	r.set("sim.step_ms_p50", "ms", su.p50)
	r.set("sim.step_ms_p90", "ms", su.p90)
	r.set("sim.object_steps_per_s", "ops/s", float64(rep.Objects*len(pu.steps))/pu.wall.Seconds())
	r.set("self_ms.sim.step", "ms", float64(tr.selfTimes()["sim.step"].Nanoseconds())/1e6/float64(len(pt.steps)))
	return 100 * (st.p50 - su.p50) / su.p50, nil
}

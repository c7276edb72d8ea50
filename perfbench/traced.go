package main

import (
	"fmt"
	"path/filepath"
)

// runTraced is the per-layer run: a transport pass, the observability-tax
// pair, the ladder rungs and a simulation pass, with spans recorded around
// every call into a layer. Every workload reports the same per-layer set;
// the pass that is the workload itself runs at full length.
func runTraced(o options, r *run) error {
	tr := &tracer{}
	isSim := o.workload == "sim-table1"
	spec := fleetSpecs[o.workload]
	if isSim {
		spec = fleetSpecs["fleet-tcp"]
	}
	in, ovTCP, err := traceTCP(o, spec, r, tr)
	if err != nil {
		return fmt.Errorf("transport pass: %w", err)
	}
	failed, attempted, nf := r.res.Failed, r.res.Attempted, len(r.failures)

	bin := filepath.Join(o.bin, "mobieyes-server")
	bare, err := hiCPU(fleetSpecs["fleet-tcp"], bin, o.seed, o.seconds)
	if err != nil {
		return fmt.Errorf("tax pass: %w", err)
	}
	observed, err := hiCPU(fleetSpecs["fleet-tcp-observed"], bin, o.seed, o.seconds)
	if err != nil {
		return fmt.Errorf("tax pass: %w", err)
	}
	r.set("obs.tax_cpu_us_per_op", "us", observed-bare)

	if err := runLadder(r, in, tr); err != nil {
		return err
	}

	dur := secs(0)
	if isSim {
		dur = secs(0.3 * o.seconds)
	}
	ovSim, err := traceSim(o, r, tr, dur)
	if err != nil {
		return fmt.Errorf("simulation pass: %w", err)
	}
	overhead := ovTCP
	if isSim {
		overhead = ovSim
	}
	r.set("trace.overhead_pct", "%", overhead)
	r.res.Attempted = attempted
	r.res.Failed = failed + int64(len(r.failures)-nf)
	if o.spans != "" {
		if err := tr.writeFile(o.spans); err != nil {
			return err
		}
	}
	return nil
}

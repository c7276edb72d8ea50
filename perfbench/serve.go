package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Shares of -seconds given to each phase of a serving run.
const (
	warmShare = 0.05 // unmeasured warm-up at the lo rate
	loShare   = 0.40 // the fixed lo-rate phase
	hiShare   = 0.40 // the fixed hi-rate phase

	// A traced run is split differently: shorter fixed phases, a traced
	// copy of the hi phase, and the max-rate sweep.
	traceLoShare = 0.15
	traceHiShare = 0.15
	probeShare   = 0.08 // each max-rate sweep probe
	taxShare     = 0.15 // the hi phase of an observability-tax pass
)

// runServing measures one serving workload untraced: setup, the fixed lo
// and hi rates, then the correctness gates.
func runServing(o options, spec fleetSpec, r *run) error {
	bin := filepath.Join(o.bin, "mobieyes-server")
	f, setups, err := startFleet(spec, bin, o.seed, nil, o.seconds)
	if err != nil {
		return err
	}
	defer f.close()
	lo, err := f.runPhase(spec.lo, secs(loShare*o.seconds), 0)
	if err != nil {
		return fmt.Errorf("lo phase: %w", err)
	}
	hi, err := f.runPhase(spec.hi, secs(hiShare*o.seconds), 0)
	if err != nil {
		return fmt.Errorf("hi phase: %w", err)
	}
	rss, err := peakRSSMB(f.srv.pid)
	if err != nil {
		return err
	}
	f.check(r)
	f.close()
	more, err := repeatSetups(spec, bin, o.seed)
	if err != nil {
		return err
	}
	setups = append(setups, more...)

	loLat, err := phaseStats(r, "lo", lo)
	if err != nil {
		return err
	}
	hiLat, err := phaseStats(r, "hi", hi)
	if err != nil {
		return err
	}
	lag, err := summarize(lo.lag)
	if err != nil {
		return fmt.Errorf("result lag: %w", err)
	}
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", rss)
	r.set("server_cpu_us_per_op.hi", "us", hi.cpuS/float64(hi.sent)*1e6)
	r.note("specified end-to-end, reported per layer (see README): p50_ms.lo %.3f p99_ms.lo %.3f p50_ms.hi %.3f p99_ms.hi %.3f result_lag_ms_p50 %.3f result_lag_ms_p99 %.3f ms; failed_ops_ratio %.6f",
		loLat.p50, loLat.p99, hiLat.p50, hiLat.p99, lag.p50, lag.p99, float64(r.res.Failed)/float64(max(r.res.Attempted, 1)))
	return nil
}

// startFleet sets a serving system up, subscribes to its result stream if
// the workload is observed, and warms it up at the lo rate.
func startFleet(spec fleetSpec, bin string, seed uint64, tr *tracer, seconds float64) (*fleet, []float64, error) {
	f := newFleet(spec, bin, seed, tr)
	d, err := f.setup()
	if err != nil {
		f.close()
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	if spec.observed {
		if f.sse, err = startSSE(f.srv.metrics); err != nil {
			f.close()
			return nil, nil, err
		}
	}
	if _, err := f.runPhase(spec.lo, secs(warmShare*seconds), 0); err != nil {
		f.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, []float64{d.Seconds()}, nil
}

// repeatSetups sets the system up setupRepeats-1 more times.
func repeatSetups(spec fleetSpec, bin string, seed uint64) ([]float64, error) {
	var out []float64
	for k := 1; k < setupRepeats; k++ {
		g := newFleet(spec, bin, seed, nil)
		d, err := g.setup()
		g.close()
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", k+1, err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// phaseStats summarises a fixed-rate phase's latencies and fails the run
// when the generator's own lateness, not the server, explains them: when
// the generator is late by half the median latency or more, or its tail
// lateness alone reaches the latency tail.
func phaseStats(r *run, name string, pr *phaseRun) (dist, error) {
	lat, err := summarize(pr.latencies())
	if err != nil {
		return lat, fmt.Errorf("%s latencies: %w", name, err)
	}
	late, err := summarize(pr.late)
	if err != nil {
		return lat, fmt.Errorf("%s lateness: %w", name, err)
	}
	if late.p50 >= lat.p50/2 || late.p99 >= lat.p99 {
		r.fail("%s phase: generator lateness (p50 %.3f, p99 %.3f ms) explains the op latency (p50 %.3f, p99 %.3f ms)",
			name, late.p50, late.p99, lat.p50, lat.p99)
	}
	r.note("%s phase: %d ops at %g ops/s, latency p50 %.3f p99 %.3f max %.3f ms (%d samples), generator late p50 %.3f p99 %.3f ms",
		name, pr.sent, pr.rate, lat.p50, lat.p99, lat.max, lat.n, late.p50, late.p99)
	return lat, nil
}

// probeOK reports whether a sweep probe met the latency limit without a
// growing backlog: p99 within the limit, and the last op, which waited
// behind the whole probe's backlog, within it too.
func probeOK(pr *phaseRun) (bool, float64) {
	if pr.aborted || pr.sent == 0 {
		return false, math.Inf(1)
	}
	lat := pr.latencies()
	last := lat[len(lat)-1]
	d, err := summarize(lat)
	if err != nil {
		return false, math.Inf(1)
	}
	return d.p99 <= latencyLimitMs && last <= latencyLimitMs, d.p99
}

// sweep binary-searches the geometric rate ladder for the highest rate
// that passes probeOK.
func (f *fleet) sweep(r *run, probe time.Duration) (float64, error) {
	top := int(math.Floor(math.Log(sweepMax/sweepMin) / math.Log(sweepRatio)))
	rate := func(k int) float64 { return sweepMin * math.Pow(sweepRatio, float64(k)) }
	lo, hi := -1, top+1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pr, err := f.runPhase(rate(mid), probe, 5*latencyLimitMs*time.Millisecond)
		if err != nil {
			return 0, err
		}
		ok, p99 := probeOK(pr)
		r.note("sweep probe %8.0f ops/s: sent %6d aborted %-5v p99 %8.3f ms ok %v", rate(mid), pr.sent, pr.aborted, p99, ok)
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		r.fail("no sweep rate met the %g ms p99 limit", latencyLimitMs)
		return sweepMin, nil
	}
	return rate(lo), nil
}

// check runs the serving correctness gates: every query's final result
// set equals the serial replay of the ops sent, no downlink failed to
// decode, every Pong came back in order, and the result stream had no
// sequence gaps and agrees with the final results.
func (f *fleet) check(r *run) {
	r.res.Attempted = int64(len(f.sent))
	var failed int64
	var sse *sseReader
	if f.sse != nil {
		sse, f.sse = f.sse, nil
		sse.close()
	}
	got, err := adminResults(f.srv.admin, f.qids)
	if err != nil {
		r.fail("admin results: %v", err)
		failed++
	}
	want := serialOracle(f)
	mismatched := 0
	for q, w := range want {
		if !slices.Equal(got[q], w) {
			mismatched++
		}
		if sse != nil {
			var members []uint32
			for oid := range sse.members[q] {
				members = append(members, oid)
			}
			slices.Sort(members)
			if !slices.Equal(members, got[q]) {
				r.fail("query %d: stream membership differs from the admin result", q)
				failed++
			}
		}
	}
	if err == nil && mismatched > 0 {
		r.fail("%d of %d query results differ from the serial replay", mismatched, len(want))
		failed += int64(mismatched)
	}
	if n := f.decodeErrs.Load(); n > 0 {
		r.fail("%d downlinks failed to decode", n)
		failed += n
	}
	if n := f.orderErrs.Load(); n > 0 {
		r.fail("%d pongs out of order", n)
		failed += n
	}
	if sse != nil {
		if sse.gaps > 0 {
			r.fail("result stream: %d sequence gaps", sse.gaps)
			failed += sse.gaps
		}
		if sse.err != nil && sse.events == 0 {
			r.fail("result stream: %v", sse.err)
			failed++
		}
		r.note("result stream: %d events, %d gaps", sse.events, sse.gaps)
	}
	r.res.Failed = failed
	r.note("checked %d query results against the serial replay of %d ops: %d differ", len(want), len(f.sent), mismatched)
}

// pingRTT times n idle Ping/Pong round trips and returns the median, µs.
func (f *fleet) pingRTT(n int) (float64, error) {
	var rtt []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f.fenceWait(); err != nil {
			return 0, err
		}
		rtt = append(rtt, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(rtt), nil
}

// hiCPU sets a serving system up and returns its server CPU per op at the
// spec's hi rate.
func hiCPU(spec fleetSpec, bin string, seed uint64, seconds float64) (float64, error) {
	f, _, err := startFleet(spec, bin, seed, nil, seconds)
	if err != nil {
		return 0, err
	}
	defer f.close()
	pr, err := f.runPhase(spec.hi, secs(taxShare*seconds), 0)
	if err != nil {
		return 0, err
	}
	return pr.cpuS / float64(pr.sent) * 1e6, nil
}

// traceTCP is the traced run's transport pass over spec: idle Ping round
// trips, the lo rate, the hi rate untraced and then traced, and the
// max-rate sweep, followed by the correctness gates. It returns what the
// ladder replays and the tracing overhead on generator CPU per op.
func traceTCP(o options, spec fleetSpec, r *run, tr *tracer) (ladderInput, float64, error) {
	bin := filepath.Join(o.bin, "mobieyes-server")
	var in ladderInput
	f, _, err := startFleet(spec, bin, o.seed, tr, o.seconds)
	if err != nil {
		return in, 0, err
	}
	defer f.close()
	rtt, err := f.pingRTT(200)
	if err != nil {
		return in, 0, err
	}
	lo, err := f.runPhase(spec.lo, secs(traceLoShare*o.seconds), 0)
	if err != nil {
		return in, 0, err
	}
	hiU, err := f.runPhase(spec.hi, secs(traceHiShare*o.seconds), 0)
	if err != nil {
		return in, 0, err
	}
	f.traceNext = true
	hiT, err := f.runPhase(spec.hi, secs(traceHiShare*o.seconds), 0)
	f.traceNext = false
	if err != nil {
		return in, 0, err
	}
	maxRate, err := f.sweep(r, secs(probeShare*o.seconds))
	if err != nil {
		return in, 0, err
	}
	f.check(r)
	f.close()

	loLat, err := phaseStats(r, "lo", lo)
	if err != nil {
		return in, 0, err
	}
	hiLat, err := phaseStats(r, "hi", hiU)
	if err != nil {
		return in, 0, err
	}
	lag, err := summarize(lo.lag)
	if err != nil {
		return in, 0, fmt.Errorf("result lag: %w", err)
	}
	late, err := summarize(hiU.late)
	if err != nil {
		return in, 0, fmt.Errorf("hi lateness: %w", err)
	}
	hiN := float64(hiU.sent)
	genU, genT := hiU.genCPUS/hiN*1e6, hiT.genCPUS/float64(hiT.sent)*1e6
	r.set("max_rate_ops_s", "ops/s", maxRate)
	r.set("p50_ms.lo", "ms", loLat.p50)
	r.set("p99_ms.lo", "ms", loLat.p99)
	r.set("p50_ms.hi", "ms", hiLat.p50)
	r.set("p99_ms.hi", "ms", hiLat.p99)
	r.set("result_lag_ms_p50", "ms", lag.p50)
	r.set("result_lag_ms_p99", "ms", lag.p99)
	r.set("gen.late_ms_p99", "ms", late.p99)
	r.set("gen.cpu_us_per_op", "us", genU)
	r.set("remote.ping_rtt_us", "us", rtt)
	r.set("remote.downlinks_per_op", "count", float64(hiU.downs)/hiN)
	r.set("remote.ctx_switches_per_op", "count", hiU.ctxSw/hiN)
	self := tr.selfTimes()
	tn := float64(tr.count("op"))
	for _, name := range []string{"op", "op.encode", "op.write", "op.server", "op.decode"} {
		label := name
		if name == "op" {
			label = "op.schedule" // the root's self time: waiting to be written
		}
		r.set("self_us."+label, "us", float64(self[name].Nanoseconds())/1e3/tn)
	}

	n := min(len(f.sent), ladderOps)
	in = ladderInput{seed: o.seed, side: f.gen.side, joins: f.joins, focals: f.focals,
		ops: f.sent[:n], downlinks: f.captured}
	return in, 100 * (genT - genU) / genU, nil
}

// ladderOps is how many of the run's ops the ladder rungs replay.
const ladderOps = 20000

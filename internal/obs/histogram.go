package obs

import (
	"math"
	"sync/atomic"
)

// LatencyBuckets are the default histogram bounds for durations in seconds:
// 100 ns to 1 s, roughly logarithmic. Server-side per-operation latencies in
// this system sit in the sub-microsecond to millisecond range, so the low
// end is deliberately fine-grained.
var LatencyBuckets = []float64{
	100e-9, 250e-9, 500e-9,
	1e-6, 2.5e-6, 5e-6,
	10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3,
	10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3, 1,
}

// SizeBuckets are the default bounds for dimensionless sizes (batch sizes,
// fan-out counts, cell counts): powers of two up to 64 Ki.
var SizeBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536,
}

// LogBuckets generates strictly ascending log-spaced bucket bounds from lo to
// at least hi, with perDecade bounds per factor of ten. Bounds are computed in
// log space (not by repeated multiplication) so long ladders don't accumulate
// rounding drift.
func LogBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic("obs: LogBuckets needs 0 < lo < hi and perDecade > 0")
	}
	steps := int(math.Ceil(math.Log10(hi/lo) * float64(perDecade)))
	out := make([]float64, 0, steps+1)
	logLo := math.Log10(lo)
	for i := 0; ; i++ {
		b := math.Pow(10, logLo+float64(i)/float64(perDecade))
		if len(out) > 0 && b <= out[len(out)-1] {
			continue
		}
		out = append(out, b)
		if b >= hi {
			return out
		}
	}
}

// HDRLatencyBuckets is the high-dynamic-range latency preset for open-loop
// load measurement, in seconds: 20 ns to 10 s, nine log-spaced bounds per
// decade (~29% resolution). Unlike LatencyBuckets it does not saturate at 1 s,
// so coordinated-omission-corrected tail latencies — where one multi-second
// stall charges thousands of queued ops with seconds of wait — stay resolved
// instead of clamping to the top bound.
var HDRLatencyBuckets = LogBuckets(20e-9, 10, 9)

// A Histogram counts observations into fixed buckets (cumulative on export,
// per-bucket internally) and tracks their total count and sum, permitting
// Prometheus-style quantile estimation. All methods are safe for concurrent
// use; a nil *Histogram is a no-op.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets,
	// ascending. counts has len(bounds)+1 entries; the last is the
	// overflow (+Inf) bucket.
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits, CAS-minimized; +Inf until first observation
	max    atomic.Uint64 // float64 bits, CAS-maximized; 0 until first observation
}

// NewHistogram returns a standalone histogram with the given ascending
// bucket upper bounds (LatencyBuckets when bounds is empty).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	return h
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (~20) and real observations
	// concentrate in the low buckets, so this beats a binary search on
	// average and keeps the hot path branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sum.Load()
		niu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, niu) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Min returns the smallest value observed so far — exact, like Max, and
// correct for values ≤ 0 too. Returns 0 for a nil or empty histogram.
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	v := math.Float64frombits(h.min.Load())
	if math.IsInf(v, 1) {
		return 0
	}
	return v
}

// Max returns the largest value observed so far — exact, not a bucket bound,
// which matters for the tail above the quantile resolution. Returns 0 for a
// nil or empty histogram (and for histograms that only saw values ≤ 0).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Mean returns the arithmetic mean of all observations (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// snapshot copies the per-bucket counts. The copy is not atomic across
// buckets — like any live scrape, it may straddle concurrent observations —
// but each bucket value is itself consistent.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation inside the containing bucket, exactly like
// Prometheus's histogram_quantile, then clamps the estimate into the exact
// [Min, Max]: the interpolation assumes values spread across the whole
// bucket, which the smallest and largest observations may not reach.
// Observations in the overflow bucket interpolate to the highest finite
// bound before the clamp. Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return math.Max(math.Min(h.bucketQuantile(q), h.Max()), h.Min())
}

// bucketQuantile is Quantile's bucket interpolation, before the clamp to
// [Min, Max].
func (h *Histogram) bucketQuantile(q float64) float64 {
	counts := h.snapshot()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		// NaN fails every comparison, so without this guard it would slip
		// past both clamps and poison rank (and the returned estimate).
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum)+float64(c) < rank || c == 0 {
			cum += c
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: the true value is above every finite
			// bound; clamp, as histogram_quantile does.
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		frac := (rank - float64(cum)) / float64(c)
		return lower + (h.bounds[i]-lower)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

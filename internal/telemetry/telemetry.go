// Package telemetry is the determinism-safe instrumentation layer for
// the online scheduling subsystem: event counters, fixed-log-bucket
// histograms, and a ring-buffer decision tracer, all stamped with the
// LOGICAL clock the scheduler already runs on — the package never reads
// a wall clock, spawns a goroutine, or consults the environment, so it
// lives inside the determinism boundary (genschedvet's zone table) and
// attaching it to a scheduler changes no output bit.
//
// The one deliberately wall-clock-adjacent type is Edge (edge.go): the
// per-endpoint latency histograms a daemon feeds with durations it
// measured itself at its HTTP boundary. Edge still performs no clock
// reads — the caller passes elapsed seconds in — but because any value
// fed to it is meaningless off the daemon edge, detlint forbids the
// Edge API inside deterministic zones outright.
//
// # Concurrency and determinism
//
// Counter, Histogram, Tracer and Sink are PLAIN, SINGLE-WRITER state:
// no atomics, no internal locks. Every instrumented event is emitted
// from one scheduler thread at a time (the daemon serializes each
// shard's mutations under that shard's lock; the adaptive loop's
// internal worker pools emit nothing), and readers — /metrics scrapes,
// /v1/trace exports — synchronize on that same external lock. The replay and
// differential suites are single-goroutine, so they need no lock at
// all. This is what keeps a hook down to a few nanoseconds of plain
// arithmetic — the CI ratio gate bounds the instrumented submit path to
// ≥ 95% of bare throughput, a budget per-hook atomics cannot meet — and
// it is also what makes the recorded state bit-deterministic: for a
// fixed seed the trace and the final counter/histogram values are
// identical across worker counts, which the golden-trace tests pin.
//
// Edge is the exception: HTTP handlers record latencies concurrently,
// outside any shard lock, so Edge carries its own internal lock.
package telemetry

import "math"

// Counter is a monotonically increasing event count. Plain state:
// writes come from the single scheduler thread, and concurrent readers
// must hold the same external lock as the writer (see the package
// comment).
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v }

// Histogram bucket layout: fixed power-of-two boundaries, identical on
// every platform. Bucket i covers (2^(minExp+i-1), 2^(minExp+i)] for
// i in [1, finiteBuckets); bucket 0 additionally absorbs everything at
// or below 2^minExp (including zero and negative observations), and the
// last bucket is the +Inf overflow. Classification reads the float's
// exponent bits directly — exact bit manipulation, no logarithm — so a
// value can never land in a different bucket on a different libm, and
// an Observe on the scheduler hot path costs a few integer ops.
const (
	histMinExp = -20 // smallest finite upper bound: 2^-20 s ≈ 0.95 µs
	histMaxExp = 40  // largest finite upper bound: 2^40 s ≈ 35000 years
	// HistBuckets is the total bucket count: one bucket per finite
	// upper bound 2^minExp..2^maxExp, plus the +Inf overflow.
	HistBuckets = histMaxExp - histMinExp + 2
)

// Histogram is a fixed-log-bucket histogram. The zero value is ready.
// Observations are exact-bucketed (Frexp, not log). Like Counter it is
// plain single-writer state — one thread observes, readers share its
// lock — which makes Observe one bucket increment plus one float add,
// and the sum bit-deterministic by construction.
type Histogram struct {
	counts [HistBuckets]uint64
	sum    float64
}

// bucketIndex classifies v. Exact powers of two belong to the bucket
// they bound: v ∈ (2^(e-1), 2^e] maps to upper bound 2^e. Equivalent
// to classifying with math.Frexp (the boundary test pins this), but on
// the raw exponent bits: a subnormal's computed exponent lands far
// below histMinExp and clamps to bucket 0 like every other tiny value.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0 // zero, negative, NaN
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023 // unbiased exponent; the sign bit is clear since v > 0
	if bits&(1<<52-1) != 0 {
		exp++ // not an exact power of two: v ∈ (2^exp, 2^(exp+1)), the bucket above
	}
	// Now v ∈ (2^(exp-1), 2^exp]: the bucket whose upper bound is 2^exp.
	i := exp - histMinExp
	if i < 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return HistBuckets - 1 // +Inf's exponent (1024) lands here too — no separate check
	}
	return i
}

// BucketUpper returns bucket i's inclusive upper bound (+Inf for the
// overflow bucket).
func BucketUpper(i int) float64 {
	if i >= HistBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, histMinExp+i)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)]++
	// v-v is 0 exactly for finite v and NaN otherwise (Inf-Inf = NaN),
	// so one subtraction keeps a non-finite value from poisoning the
	// sum while staying within the inlining budget — Observe sits on
	// the scheduler hot path.
	if v-v == 0 {
		h.sum += v
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Sum    float64
}

// Total returns the observation count (the sum of all buckets).
func (s *HistSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Snapshot copies the histogram. The total is computed from the
// buckets, never from a separate counter, so a snapshot's cumulative
// view is always internally monotone.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{Counts: h.counts, Sum: h.sum}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Sum returns the sum of all finite observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Merge adds o's observations into h. Because the buckets are fixed
// and identical across every Histogram, merging is exact: bucket
// counts add, sums add, and no observation is re-bucketed.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
}

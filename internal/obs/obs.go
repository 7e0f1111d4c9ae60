// Package obs is the repository's self-observability layer: a
// dependency-free metrics kit — counters, gauges, and fixed-bucket latency
// histograms — plus a registry that renders both the Prometheus text
// exposition format and a structured JSON snapshot.
//
// The package exists because RATracer's whole value proposition is
// visibility into an opaque automation stack, and a tracing middlebox whose
// own latency distributions, breaker flips, and broker drops are invisible
// is not holding itself to the standard it applies to the devices it
// traces. Every layer of the reproduction (middlebox exec, tracedb, the
// stream broker, the parallel pool, the fault injectors) registers its
// metrics here; radmiddlebox -obs-addr serves them live and radwatch -obs
// pretty-prints them.
//
// Design rules:
//
//   - Writes never lock. Counter.Add and Histogram.Observe are per-P-style
//     sharded cache-line-padded atomics, merged only at render time — the
//     same shard-then-merge discipline internal/parallel applies to the
//     analysis kernels — so concurrent execs never serialize on a metric.
//   - Reads never see a metric go backwards, but a render racing concurrent
//     observes may split one observation across two renders (each atomic is
//     individually exact; cross-atomic consistency is not promised —
//     standard monitoring semantics).
//   - No time source. Histograms observe time.Duration values the caller
//     measured with its own injected clock, so virtual-clock campaigns
//     produce bit-identical histograms run after run while real-clock
//     deployments measure wall time. The package itself never reads a
//     clock.
//   - No dependencies. Stdlib only, and nothing from the rest of the
//     repository, so every internal package may register metrics without
//     import cycles.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// shardCount is the number of per-metric shards: the next power of two at
// or above GOMAXPROCS at package init, capped at 64. One shard per P is the
// target; the cap bounds the per-metric footprint on very wide machines.
var shardCount = func() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 64 {
		s <<= 1
	}
	return s
}()

// shardIndex picks a shard for the calling goroutine. Go does not expose
// the current P, so the index is a multiplicative hash of a stack address:
// every goroutine has its own stack, so concurrent writers spread across
// shards, which is all the layout needs — any goroutine may use any shard,
// because reads merge all of them. The choice only steers contention, never
// correctness.
func shardIndex(mask uint32) uint32 {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	h *= 0x9e3779b97f4a7c15 // Fibonacci hashing: spread nearby addresses
	return uint32(h>>33) & mask
}

// pad fills a counter shard out to a cache line so neighbouring shards
// never false-share.
const cacheLine = 64

type counterShard struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing sharded counter. The zero value is
// not ready to use; obtain one from Registry.Counter.
type Counter struct {
	shards []counterShard
	mask   uint32
}

func newCounter() *Counter {
	return &Counter{shards: make([]counterShard, shardCount), mask: uint32(shardCount - 1)}
}

// Add increments the counter by n. Lock-free; safe for any number of
// concurrent callers.
func (c *Counter) Add(n uint64) {
	c.shards[shardIndex(c.mask)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value merges the shards into the counter's current total.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a value that can go up and down (ring occupancy, active
// workers). A single atomic word: gauges are set/adjusted off the hot
// paths, so sharding would buy nothing.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets spans 1µs to 60s exponentially — wide enough that
// both a real-clock exec (hundreds of ns to ms) and a virtual-clock device
// operation (ms to minutes of simulated time) land in resolved buckets.
var DefaultLatencyBuckets = []time.Duration{
	1 * time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
	10 * time.Second, 30 * time.Second, 60 * time.Second,
}

// histShard holds one shard's bucket counts and duration sum. counts has
// len(bounds)+1 entries; the final entry is the overflow (+Inf) bucket.
// The struct is padded so adjacent shards' sums never share a line; the
// counts slices are separate allocations and spread naturally.
type histShard struct {
	counts []atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	_      [cacheLine - unsafe.Sizeof([]atomic.Uint64{}) - 8]byte
}

// Histogram is a fixed-bucket latency histogram with sharded lock-free
// observes. Bucket bounds are set at construction and never change; the
// total count is derived from the buckets at read time, so Observe pays
// exactly two atomic adds.
type Histogram struct {
	bounds []int64 // bucket upper bounds in nanoseconds, ascending
	shards []histShard
	mask   uint32
	// ex holds one exemplar trace id per bucket (len(bounds)+1): the trace
	// id of the most recent traced observation that landed there, linking a
	// bucket back to a tree on /debug/spans. Last-writer-wins per bucket —
	// an exemplar is a sample, not an aggregate.
	ex []atomic.Uint64
}

func newHistogram(buckets []time.Duration) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	bounds := make([]int64, len(buckets))
	prev := int64(-1)
	for i, b := range buckets {
		n := int64(b)
		if n <= prev {
			panic("obs: histogram buckets must be positive and strictly ascending")
		}
		bounds[i] = n
		prev = n
	}
	h := &Histogram{bounds: bounds, shards: make([]histShard, shardCount), mask: uint32(shardCount - 1),
		ex: make([]atomic.Uint64, len(bounds)+1)}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// Observe records one duration. Negative durations clamp to zero; values
// above the last bound land in the overflow (+Inf) bucket. Lock-free.
func (h *Histogram) Observe(d time.Duration) { h.ObserveExemplar(d, 0) }

// ObserveExemplar records one duration and, when traceID is non-zero,
// stamps the landing bucket's exemplar with it, so the rendered histogram
// can link each bucket to a recent trace. The bucket is found by binary
// search, then one shard pays two atomic adds.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	i := h.bucket(n)
	s := &h.shards[shardIndex(h.mask)]
	s.counts[i].Add(1)
	s.sum.Add(n)
	if traceID != 0 {
		h.ex[i].Store(traceID)
	}
}

// Exemplars returns the per-bucket exemplar trace ids (len(bounds)+1; the
// final entry is the overflow bucket). Zero means no traced observation has
// landed in that bucket.
func (h *Histogram) Exemplars() []uint64 {
	out := make([]uint64, len(h.ex))
	for i := range h.ex {
		out[i] = h.ex[i].Load()
	}
	return out
}

// bucket returns the index of the first bucket whose bound is >= n (the
// overflow index when none is). Binary search: the bound slice is small
// (≤64), so this is a handful of well-predicted comparisons.
func (h *Histogram) bucket(n int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Count merges the shards into the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.shards {
		for j := range h.shards[i].counts {
			total += h.shards[i].counts[j].Load()
		}
	}
	return total
}

// Sum merges the shards into the total observed duration.
func (h *Histogram) Sum() time.Duration {
	var total int64
	for i := range h.shards {
		total += h.shards[i].sum.Load()
	}
	return time.Duration(total)
}

// counts merges the shards into one per-bucket (non-cumulative) count
// slice of len(bounds)+1; the final entry is the overflow bucket.
func (h *Histogram) counts() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	for i := range h.shards {
		for j := range h.shards[i].counts {
			out[j] += h.shards[i].counts[j].Load()
		}
	}
	return out
}

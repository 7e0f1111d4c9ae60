package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// pctl returns the nearest-rank q-quantile (0<q<=1) of xs, sorting xs in
// place. Empty input gives 0.
func pctl(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(q*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(sum(xs)) / float64(len(xs))
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// outcomeHash fingerprints a command outcome (reply Value/Error, or a
// record's Response/Exception) for the reply-by-reply correctness gates.
func outcomeHash(value, errStr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(value))
	h.Write([]byte{0})
	h.Write([]byte(errStr))
	return h.Sum64()
}

// digestChain folds per-item hashes in order into one digest.
func digestChain(d, item uint64) uint64 {
	d ^= item
	d *= 1099511628211
	return d
}

// vmHWM reads the process's resident-set high-water mark in MB.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostFacts records what a result needs to be interpreted: CPU count,
// scheduler width, toolchain, and how far a sub-millisecond sleep
// overshoots (the floor under any load paced by sleeps, and why the
// serving workload is a closed loop).
func hostFacts() map[string]any {
	const want = 200 * time.Microsecond
	var over []float64
	for i := 0; i < 25; i++ {
		t := time.Now()
		time.Sleep(want)
		over = append(over, float64(time.Since(t)-want)/1e3)
	}
	return map[string]any{
		"nproc":                        runtime.NumCPU(),
		"gomaxprocs":                   runtime.GOMAXPROCS(0),
		"go":                           runtime.Version(),
		"goarch":                       runtime.GOARCH,
		"sleep_200us_overshoot_p50_us": medianF(over),
	}
}

// liveHeapMB returns the live heap in MB after two collections: the
// second also frees what sync.Pools held through the first, so caches
// filled by chance of timing do not count.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()) / (1 << 20)
}

// memSnap is the part of runtime.MemStats the per-layer metrics use.
type memSnap struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, gcs: m.NumGC}
}

func allocMB(a, b memSnap) float64 { return float64(b.alloc-a.alloc) / (1 << 20) }

// offHeap returns a zeroed slice of n pointer-free elements backed by an
// anonymous mapping outside the Go heap. The per-request columns live
// there so that they neither raise the collector's heap goal — which
// would let the program's own garbage pile up and inflate its memory —
// nor take memory before they are written. Mappings last until exit.
func offHeap[T int64 | uint64 | bool](n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	var zero T
	b, err := syscall.Mmap(-1, 0, int(unsafe.Sizeof(zero))*n,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-entry column: %w", n, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// columns allocates one off-heap column per pointer.
func columns[T int64 | uint64 | bool](n int, cols ...*[]T) error {
	for _, c := range cols {
		var err error
		if *c, err = offHeap[T](n); err != nil {
			return err
		}
	}
	return nil
}

// stealJiffies reads the machine-wide CPU time from /proc/stat: all
// jiffies and those stolen by the hypervisor. Their ratio over a run says
// how much of the host the run did not get.
func stealJiffies() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencyMetrics reports a workload's end-to-end latency over its units of
// work: the mean is the gated metric, and the median and upper tail go to
// the notes with the sample count. A campaign run holds a few dozen passes
// at most, too few for a steady tail (see README.md).
func latencyMetrics(rep *report, lat []int64) {
	rep.metrics["latency_mean_us"] = mean(lat) / 1e3
	rep.notes["latency_p50_us"] = us(pctl(lat, 0.5))
	rep.notes["latency_p90_us"] = us(pctl(lat, 0.9))
	rep.notes["latency_p99_us"] = us(pctl(lat, 0.99))
	rep.notes["latency_p999_us"] = us(pctl(lat, 0.999))
	rep.notes["latency_samples"] = len(lat)
}

// sampleEvery is how often a measured phase samples memory and steal.
const sampleEvery = 20 * time.Millisecond

// phaseSampler watches a measured phase. It samples the resident set,
// whose peak goes to the notes (it swung by a fifth between runs of one
// workload with when the collector happened to run), and the machine's
// stolen CPU time, for calm.
type phaseSampler struct {
	stop, done chan struct{}
	rssPeak    float64 // MB
	ticks      []stealTick
}

type stealTick struct {
	at           int64 // benchmark clock
	total, steal uint64
}

func startPhase() *phaseSampler {
	r := &phaseSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				r.sample()
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *phaseSampler) sample() {
	total, steal := stealJiffies()
	r.ticks = append(r.ticks, stealTick{now(), total, steal})
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	if mb := pages * float64(os.Getpagesize()) / (1 << 20); mb > r.rssPeak {
		r.rssPeak = mb
	}
}

// Stop ends sampling; the fields are read after it returns.
func (r *phaseSampler) Stop() {
	close(r.stop)
	<-r.done
}

// stealPct is the share of the machine's CPU time the hypervisor took
// between benchmark-clock instants a and b, widened to the nearest samples.
func (r *phaseSampler) stealPct(a, b int64) float64 {
	if len(r.ticks) == 0 {
		return 0
	}
	i := max(sort.Search(len(r.ticks), func(k int) bool { return r.ticks[k].at > a })-1, 0)
	j := min(sort.Search(len(r.ticks), func(k int) bool { return r.ticks[k].at >= b }), len(r.ticks)-1)
	dt := r.ticks[j].total - r.ticks[i].total
	if j <= i || dt == 0 {
		return 0
	}
	return 100 * float64(r.ticks[j].steal-r.ticks[i].steal) / float64(dt)
}

// calmSteal is the most hypervisor steal, in percent of the machine's CPU
// time, that a one-second window of a measured phase (or a campaign pass)
// may show and always count toward the gated metrics. On the shared host
// this was built on, steal came in bursts of 2-22% lasting seconds to
// minutes, and runs that caught them were 15-60% slower on every metric;
// calm seconds showed under 1%.
const calmSteal = 1.0

const calmWindow = int64(time.Second)

// calmLimit is the most steal a window or pass may show and count: calmSteal,
// or, when fewer than a third are that calm, the steal of the calmest third.
// So a gated figure always rests on at least a third of the run, the part
// the hypervisor disturbed least.
func calmLimit(steal []float64) float64 {
	if len(steal) == 0 {
		return calmSteal
	}
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	return max(calmSteal, s[(len(s)-1)/3])
}

// calm marks the one-second windows of a measured phase whose steal is
// within calmLimit.
type calm struct {
	start int64
	ok    []bool
	limit float64 // steal percent
}

func (r *phaseSampler) calm(start, end int64) *calm {
	var steal []float64
	for a := start; a < end; a += calmWindow {
		steal = append(steal, r.stealPct(a, min(a+calmWindow, end)))
	}
	c := &calm{start: start, limit: calmLimit(steal)}
	for _, s := range steal {
		c.ok = append(c.ok, s <= c.limit)
	}
	return c
}

// has reports whether instant t falls in a calm window; a nil calm
// counts every instant.
func (c *calm) has(t int64) bool {
	if c == nil {
		return true
	}
	i := (t - c.start) / calmWindow
	return i >= 0 && i < int64(len(c.ok)) && c.ok[i]
}

func (c *calm) windows() (calm, all int) {
	for _, ok := range c.ok {
		if ok {
			calm++
		}
	}
	return calm, len(c.ok)
}

package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "src", "a")
	const goroutines, per = 8, 10_000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter merged to %d, want %d", got, goroutines*per)
	}
	// Re-registration returns the same counter, not a fresh one.
	if again := reg.Counter("test_total", "src", "a"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Label order must not matter for identity.
	c2 := reg.Counter("multi_total", "a", "1", "b", "2")
	if reg.Counter("multi_total", "b", "2", "a", "1") != c2 {
		t.Fatal("label order changed metric identity")
	}
}

func TestObsGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	reg.GaugeFunc("pulled", func() float64 { return 2.5 })
	snap := reg.Snapshot()
	var found bool
	for _, gs := range snap.Gauges {
		if gs.Name == "pulled" && gs.Value == 2.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pull-based gauge missing from snapshot: %+v", snap.Gauges)
	}
}

func TestObsCounterFuncReplaced(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("cf_total", func() uint64 { return 1 })
	reg.CounterFunc("cf_total", func() uint64 { return 9 })
	if v := reg.Snapshot().Counters[0].Value; v != 9 {
		t.Fatalf("replaced CounterFunc reads %d, want 9", v)
	}
}

// TestObsConcurrentRegisterWhileRender races child creation (the lazy
// holder/callback binding) against both render paths — the -race guarantee
// that an entry is never visible to a render before its holder is set, and
// that two racing creators of one name share a single counter.
func TestObsConcurrentRegisterWhileRender(t *testing.T) {
	reg := NewRegistry()
	const goroutines, names = 8, 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < names; i++ {
				id := strconv.Itoa(i)
				reg.Counter("race_total", "id", id).Inc()
				reg.GaugeFunc("race_pull", func() float64 { return float64(g) }, "id", id)
				reg.Histogram("race_seconds", nil, "id", id).Observe(time.Millisecond)
			}
		}()
	}
	var renders sync.WaitGroup
	renders.Add(1)
	stop := make(chan struct{})
	go func() {
		defer renders.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			_ = reg.WritePrometheus(&b)
			_ = reg.Snapshot()
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	renders.Wait()
	// Every racing creator must have bound the same counter per id.
	for i := 0; i < names; i++ {
		if got := reg.Counter("race_total", "id", strconv.Itoa(i)).Value(); got != goroutines {
			t.Fatalf("race_total{id=%d} = %d, want %d (lost increments)", i, got, goroutines)
		}
	}
}

// TestObsUnregisterReleasesFamily: removing a family's last child must
// release its kind (and help), so churned names can come back — even as a
// different kind.
func TestObsUnregisterReleasesFamily(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("churn", "old help")
	reg.GaugeFunc("churn", func() float64 { return 1 }, "id", "1")
	reg.GaugeFunc("churn", func() float64 { return 2 }, "id", "2")
	reg.Unregister("churn", "id", "1")
	// One sibling left: the family's kind must still be enforced.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("registering churn as a counter with a live sibling did not panic")
			}
		}()
		reg.Counter("churn", "id", "3")
	}()
	reg.Unregister("churn", "id", "2")
	// Family empty: the name is free again, as any kind.
	reg.Counter("churn").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE churn counter") {
		t.Fatalf("reborn family has wrong type:\n%s", b.String())
	}
	if strings.Contains(b.String(), "old help") {
		t.Fatalf("stale help survived family removal:\n%s", b.String())
	}
}

// TestObsHistogramOverflowHint: a stream sitting above the last bound lands
// in the overflow bucket, and a later observation that drops back is
// counted in its finite bucket.
func TestObsHistogramOverflowHint(t *testing.T) {
	h := newHistogram([]time.Duration{time.Millisecond, time.Second})
	for i := 0; i < 10; i++ {
		h.Observe(time.Minute) // all overflow
	}
	h.Observe(time.Microsecond) // back to the first bucket
	counts := h.counts()
	if counts[0] != 1 || counts[len(counts)-1] != 10 {
		t.Fatalf("counts = %v, want 1 in first bucket and 10 in overflow", counts)
	}
}

func TestObsKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total")
}

func TestObsUnregister(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("sub_buffered", func() float64 { return 1 }, "id", "1")
	reg.GaugeFunc("sub_buffered", func() float64 { return 2 }, "id", "2")
	if !reg.Unregister("sub_buffered", "id", "1") {
		t.Fatal("unregister of existing child reported false")
	}
	if reg.Unregister("sub_buffered", "id", "1") {
		t.Fatal("second unregister reported true")
	}
	snap := reg.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Labels["id"] != "2" {
		t.Fatalf("wrong survivors after unregister: %+v", snap.Gauges)
	}
}

// TestObsHistogramZeroObservations: an empty histogram must render cleanly
// — zero count, zero sum, all-zero buckets, quantiles 0, no NaNs.
func TestObsHistogramZeroObservations(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty_seconds", nil)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`empty_seconds_bucket{le="+Inf"} 0`,
		"empty_seconds_sum 0",
		"empty_seconds_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	hs := reg.Snapshot().Histograms[0]
	if hs.Count != 0 || hs.SumSeconds != 0 {
		t.Fatalf("empty histogram snapshot: %+v", hs)
	}
	if q := hs.Quantile(0.99); q != 0 {
		t.Fatalf("empty-histogram quantile = %v, want 0", q)
	}
}

// TestObsHistogramOverflowBucket: observations beyond the last bound land
// in +Inf only, and the quantile estimate saturates at the last finite
// bound instead of inventing a value.
func TestObsHistogramOverflowBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("of_seconds", []time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Hour)
	h.Observe(2 * time.Hour)
	h.Observe(-5 * time.Second) // negative clamps to 0: first bucket
	hs := reg.Snapshot().Histograms[0]
	if hs.Count != 3 {
		t.Fatalf("count = %d, want 3", hs.Count)
	}
	if got := hs.Buckets[0].Count; got != 1 {
		t.Fatalf("first bucket cumulative = %d, want 1 (clamped negative)", got)
	}
	if got := hs.Buckets[1].Count; got != 1 {
		t.Fatalf("1s bucket cumulative = %d, want 1", got)
	}
	last := hs.Buckets[len(hs.Buckets)-1]
	if last.LE != "+Inf" || last.UpperNanos != -1 || last.Count != 3 {
		t.Fatalf("overflow bucket = %+v", last)
	}
	if q := hs.Quantile(0.99); q != 1.0 {
		t.Fatalf("overflow quantile = %v, want saturation at 1s", q)
	}
	if want := time.Hour + 2*time.Hour; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

// TestObsHistogramConcurrentObserveWhileRender hammers a histogram from
// several goroutines while concurrently rendering both expositions — the
// -race guarantee that the sharded hot path and the merging readers never
// conflict, and that no render ever sees a decreasing count.
func TestObsHistogramConcurrentObserveWhileRender(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hot_seconds", nil, "device", "C9")
	const writers, per = 4, 5_000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}()
	}
	var renders sync.WaitGroup
	renders.Add(2)
	go func() {
		defer renders.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			if c := snap.Histograms[0].Count; c < last {
				t.Errorf("count went backwards: %d -> %d", last, c)
				return
			} else {
				last = c
			}
		}
	}()
	go func() {
		defer renders.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			_ = reg.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	close(stop)
	renders.Wait()
	if got := h.Count(); got != writers*per {
		t.Fatalf("final count = %d, want %d", got, writers*per)
	}
}

func TestObsHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]time.Duration{10 * time.Nanosecond, 20 * time.Nanosecond})
	// A value exactly on a bound belongs to that bound's bucket (le is <=).
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{{5, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 2}} {
		if got := h.bucket(int64(tc.d)); got != tc.want {
			t.Fatalf("bucket(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestObsQuantileInterpolation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", []time.Duration{time.Second, 2 * time.Second, 4 * time.Second})
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Millisecond) // all in the (1s, 2s] bucket
	}
	hs := reg.Snapshot().Histograms[0]
	if q := hs.Quantile(0.5); q < 1.0 || q > 2.0 {
		t.Fatalf("p50 = %v, want within (1s, 2s]", q)
	}
}

func TestObsPrometheusEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "path", `a"b\c`+"\n")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\n"} 0`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

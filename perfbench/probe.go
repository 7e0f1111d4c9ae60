package main

import (
	"sort"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/middlebox"
	"rad/internal/obs/span"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// probe times the layers of a traced run from outside: a Handler around
// the Core, a Device around each simulator, a Sink around the tracedb and
// the Notifier hook the broker is handed. The stack serves one exec
// connection, so every Handle — and every device exec, append and publish
// inside it — runs on that connection's goroutine in request order; cur
// names the request in flight. The per-request columns are the run's
// spans, kept in memory and written out at the end (writeSpans).
type probe struct {
	cur int

	handleStart, handleEnd []int64
	dev, app, pub          []int64 // time spent inside request i
	dev0, app0, pub0       []int64 // when that layer was first entered for request i
	commit                 []int64 // by sequence number (= request index)
	traceID                []uint64
	devErrors              int64
	col                    *spanCollector // drains the stack's span recorder
}

func newProbe(capacity int) (*probe, error) {
	p := &probe{}
	if err := columns(capacity, &p.handleStart, &p.handleEnd, &p.dev, &p.app, &p.pub,
		&p.dev0, &p.app0, &p.pub0, &p.commit); err != nil {
		return nil, err
	}
	return p, columns(capacity, &p.traceID)
}

// enter records t as column[i]'s first entry time.
func enter(column []int64, i int, t int64) {
	if column[i] == 0 {
		column[i] = t
	}
}

type probedHandler struct {
	next middlebox.Handler
	p    *probe
}

func (h probedHandler) Handle(req wire.Request) wire.Reply {
	i := int(req.ID) - 1
	if req.Op != wire.OpExec || i < 0 || i >= len(h.p.handleStart) {
		return h.next.Handle(req)
	}
	// The serving goroutine records most spans, so it is the one goroutine
	// that can never be starved of the chance to drain them.
	h.p.col.maybeCollect()
	h.p.cur = i
	h.p.traceID[i] = req.TraceID // the server's root context, set before Handle
	t0 := now()
	rep := h.next.Handle(req)
	h.p.handleStart[i], h.p.handleEnd[i] = t0, now()
	return rep
}

type probedDevice struct {
	next device.Device
	p    *probe
}

func (d probedDevice) Name() string { return d.next.Name() }

func (d probedDevice) Exec(cmd device.Command) (string, error) {
	t0 := now()
	v, err := d.next.Exec(cmd)
	enter(d.p.dev0, d.p.cur, t0)
	d.p.dev[d.p.cur] += now() - t0
	if err != nil {
		d.p.devErrors++
	}
	return v, err
}

// probedSink times tracedb appends. It forwards SetOnCommit, so
// Core.AttachBroker still hands the broker a Notifier — this one, which
// times the publish the commit hook performs.
type probedSink struct {
	db *tracedb.DB
	p  *probe
}

var _ store.Notifier = (*probedSink)(nil)

func (s *probedSink) Append(r store.Record) error {
	t0 := now()
	err := s.db.Append(r)
	enter(s.p.app0, s.p.cur, t0)
	s.p.app[s.p.cur] += now() - t0
	return err
}

func (s *probedSink) SetOnCommit(fn func([]store.Record)) {
	s.db.SetOnCommit(func(recs []store.Record) {
		t0 := now()
		fn(recs)
		enter(s.p.pub0, s.p.cur, t0)
		s.p.pub[s.p.cur] += now() - t0
		for _, r := range recs {
			if r.Seq < uint64(len(s.p.commit)) {
				s.p.commit[r.Seq] = t0
			}
		}
	})
}

// spanCollector drains the program's own span flight recorder often enough
// that nothing is overwritten before it is read. The recorder has no
// consume operation, only a copy of every ring, so a copy is taken each
// time collectEvery new spans have been recorded; the serving goroutine,
// the client, the tail reader and a poller all check. From each copy it
// keeps the codec spans the previous copy did not hold (a ring is FIFO:
// a span seen two copies ago and still present was in the previous one).
type spanCollector struct {
	mu           sync.Mutex
	rec          *span.Recorder
	lastRecorded uint64
	prev, next   map[uint64]struct{} // codec span ids of the last two copies
	decode       []spanDur
	encode       []spanDur
}

type spanDur struct {
	trace      uint64
	start, dur int64 // start on the benchmark clock (see now)
}

// collectEvery is how many new spans may accumulate before a copy: half
// of one 512-span shard (radmiddlebox's default ring), leaving the other
// half for spans recorded between the check that crosses it and the copy.
const collectEvery = 256

func newSpanCollector(rec *span.Recorder) *spanCollector {
	return &spanCollector{rec: rec, prev: map[uint64]struct{}{}, next: map[uint64]struct{}{}}
}

// maybeCollect copies the rings when enough spans have been recorded.
func (c *spanCollector) maybeCollect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rec.Stats().Recorded-c.lastRecorded >= collectEvery {
		c.collectLocked()
	}
}

// poll also checks from a goroutine of its own every pollEvery, for
// spans recorded while every other checking goroutine waits; the returned
// function, safe to call more than once, stops it and waits for it to exit.
func (c *spanCollector) poll() (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			case <-time.After(pollEvery):
				c.maybeCollect()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

const pollEvery = 200 * time.Microsecond

func (c *spanCollector) collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.collectLocked()
}

func (c *spanCollector) collectLocked() {
	c.lastRecorded = c.rec.Stats().Recorded
	clear(c.next)
	for _, s := range c.rec.Spans() {
		var dst *[]spanDur
		switch s.Name {
		case "wire.decode":
			dst = &c.decode
		case "wire.encode":
			dst = &c.encode
		default:
			continue
		}
		c.next[s.SpanID] = struct{}{}
		if _, seen := c.prev[s.SpanID]; !seen {
			*dst = append(*dst, spanDur{s.TraceID, int64(s.Start.Sub(epoch)), int64(s.Duration())})
		}
	}
	c.prev, c.next = c.next, c.prev
}

// codecSpans are the collected wire.decode and wire.encode spans by
// request index; dur is -1 where a request's span was not found.
type codecSpans struct {
	dec, enc []spanDur
}

// missing counts the codec spans the program recorded for the execs
// [from, to) but the collector never saw: overwritten before a copy.
func (c codecSpans) missing(from, to int) int {
	n := 0
	for i := from; i < to; i++ {
		if c.dec[i].dur < 0 {
			n++
		}
		if c.enc[i].dur < 0 {
			n++
		}
	}
	return n
}

// attribute maps the collected codec spans onto request indexes through
// the trace id the probe saw at Handle.
func (c *spanCollector) attribute(traceIDs []uint64, n int) codecSpans {
	type ti struct {
		trace uint64
		idx   int
	}
	byTrace := make([]ti, 0, n)
	for i := 0; i < n; i++ {
		if traceIDs[i] != 0 {
			byTrace = append(byTrace, ti{traceIDs[i], i})
		}
	}
	sort.Slice(byTrace, func(a, b int) bool { return byTrace[a].trace < byTrace[b].trace })
	find := func(trace uint64) int {
		k := sort.Search(len(byTrace), func(j int) bool { return byTrace[j].trace >= trace })
		if k < len(byTrace) && byTrace[k].trace == trace {
			return byTrace[k].idx
		}
		return -1
	}
	fill := func(src []spanDur) []spanDur {
		out := make([]spanDur, n)
		for i := range out {
			out[i].dur = -1
		}
		for _, s := range src {
			if i := find(s.trace); i >= 0 {
				out[i] = s
			}
		}
		return out
	}
	return codecSpans{dec: fill(c.decode), enc: fill(c.encode)}
}

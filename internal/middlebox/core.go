// Package middlebox implements the trusted middlebox of Fig. 1: the
// component that sits between the (untrusted) lab computer and the CPS
// devices, accepts only the restricted RPC command set, executes or records
// device commands, and continuously logs every command, response, and
// exception to its trace sinks.
//
// The package splits the middlebox into a transport-independent Core (device
// registry, command execution, trace logging) and a TCP Server wrapping it.
// The split lets the same middlebox logic run over real sockets for the
// latency experiments (Fig. 4) and over an in-process transport under a
// virtual clock for generating the three-month dataset campaign.
package middlebox

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"rad/internal/device"
	"rad/internal/fault"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/wire"
)

// deviceEntry bundles everything the exec hot path needs about one
// registered device behind a single registry lookup: the device itself,
// its circuit breaker (nil unless hardened — a nil breaker admits
// everything), and its latency histograms (nil unless Observe was called).
// Entries are immutable after the configuration phase (Register /
// SetExecPolicy / Observe, all documented call-before-serving), so the hot
// path reads them without further synchronization.
type deviceEntry struct {
	dev     device.Device
	breaker *fault.Breaker
	// hist maps a command name to its latency histogram
	// (rad_middlebox_exec_seconds{device,command}), prebuilt from the
	// command catalog so the hot path pays one map read, never a
	// registration. histOther absorbs commands outside the catalog.
	hist      map[string]*obs.Histogram
	histOther *obs.Histogram
}

// observe records one exec's latency in its command's histogram, stamping
// the bucket's exemplar with traceID when the exec was traced.
func (e *deviceEntry) observe(name string, d time.Duration, traceID uint64) {
	h, ok := e.hist[name]
	if !ok {
		h = e.histOther
	}
	h.ObserveExemplar(d, traceID)
}

// Core is the transport-independent middlebox: it owns the device
// connections (REMOTE mode) and the trace log. Safe for concurrent use.
type Core struct {
	clock simclock.Clock
	// sink is immutable after NewCore; the logging hot path reads it
	// without taking any lock.
	sink store.Sink

	// cfgMu serializes the configuration phase (Register / SetExecPolicy /
	// Observe — all documented call-before-serving). The device registry
	// itself is a copy-on-write map behind an atomic pointer: writers
	// clone-and-publish under cfgMu, while the exec hot path, Snapshot, and
	// the obs render callbacks read it with one atomic load and no lock —
	// so fleet-wide aggregation across hundreds of tenant Cores never
	// serializes any of them (ISSUE 7 satellite).
	cfgMu   sync.Mutex
	entries atomic.Pointer[map[string]*deviceEntry]
	// obsReg, when set by Observe, receives every metric the middlebox
	// exports; per-device histograms live in the entries.
	obsReg *obs.Registry

	// Resilience machinery (see exec.go). policy/hardened/virtual are
	// immutable after SetExecPolicy; the zero policy keeps the seed-exact
	// single-attempt exec path.
	policy   ExecPolicy
	hardened bool
	virtual  bool // clock advances without blocking (simclock.Virtual)
	// realDeadline: attempts need the goroutine-and-timer guard of
	// execDeadlined (real clock with a timeout configured); otherwise the
	// deadline is a post-hoc virtual-elapsed check.
	realDeadline bool

	idempotent map[string]bool // "Device.Name" -> safe to retry

	retryMu  sync.Mutex
	retryRng *rand.Rand

	// broker, when attached, fans every committed trace record out to live
	// subscribers (radwatch tails, the online IDS). Immutable after
	// AttachBroker; nil means no live feed. brokerWired reports that the sink
	// publishes into the broker itself (through its commit hook), so the
	// logging path must not double-publish.
	broker      *stream.Broker
	brokerWired bool

	// spans, when attached, is the request-tracing flight recorder: one root
	// span per request with children for exec attempts and store appends
	// (internal/obs/span). Immutable after SetSpans; nil keeps tracing off
	// at the price of one nil check per request. spanTenant tags every span
	// with the owning tenant in fleet deployments.
	spans      *span.Recorder
	spanTenant string

	// Request counters are atomics so that concurrent device sessions never
	// serialize on the registry lock just to bump a statistic.
	execs  atomic.Uint64
	traces atomic.Uint64
	pings  atomic.Uint64
	errors atomic.Uint64

	// Resilience counters (hardened exec path only).
	timeouts  atomic.Uint64 // attempts that exceeded the exec deadline
	retries   atomic.Uint64 // extra attempts made for idempotent commands
	shed      atomic.Uint64 // requests rejected by an open breaker
	infraErrs atomic.Uint64 // infra-classified attempt failures
}

// Stats counts the requests a middlebox has served.
type Stats struct {
	Execs  uint64 // REMOTE-mode command executions
	Traces uint64 // DIRECT-mode trace uploads
	Pings  uint64
	Errors uint64 // requests that produced an error reply
	// Subscribers holds per-subscriber live-stream delivery accounting when a
	// broker is attached (nil otherwise).
	Subscribers []stream.SubscriberStats
	// Resilience reports the hardened exec path's activity (zero when no
	// ExecPolicy is set).
	Resilience Resilience
}

// NewCore builds a middlebox core logging to sink (which may be nil to
// disable logging, e.g. in pure latency benchmarks). A Core is cheap enough
// to instantiate per tenant: the command catalogs are shared process-wide
// and the wire buffers are pooled, so per-tenant cost is the device
// registry and the counters.
func NewCore(clock simclock.Clock, sink store.Sink) *Core {
	c := &Core{clock: clock, sink: sink}
	m := make(map[string]*deviceEntry)
	c.entries.Store(&m)
	return c
}

// table returns the current device registry: one atomic load, no lock.
func (c *Core) table() map[string]*deviceEntry { return *c.entries.Load() }

// publishEntry clones the registry with name→e added and publishes the new
// map. Caller holds cfgMu.
func (c *Core) publishEntry(name string, e *deviceEntry) {
	old := c.table()
	next := make(map[string]*deviceEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = e
	c.entries.Store(&next)
}

// AttachBroker connects a live-stream broker to the middlebox. When the trace
// sink assigns sequence numbers (implements store.Notifier), the broker is
// wired to its commit hook so subscribers see records with their
// authoritative sequence numbers, in commit order; otherwise records are
// published directly from the logging path (with whatever Seq they carry).
// Call before serving traffic.
func (c *Core) AttachBroker(b *stream.Broker) {
	c.broker = b
	if n, ok := c.sink.(store.Notifier); ok {
		b.AttachStore(n)
		c.brokerWired = true
	}
}

// SetSpans attaches a span flight recorder; tenant (may be empty) tags
// every span this core records, which is how fleet routers get per-tenant
// trace rollups. Call before serving traffic.
func (c *Core) SetSpans(r *span.Recorder, tenant string) {
	c.spans = r
	c.spanTenant = tenant
}

// Spans returns the attached span recorder (nil when tracing is off).
func (c *Core) Spans() *span.Recorder { return c.spans }

// Register connects a device to the middlebox. Registering a device with a
// name already in use replaces the previous registration (and resets its
// circuit breaker when one is configured).
func (c *Core) Register(d device.Device) {
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	e := &deviceEntry{dev: d}
	if c.hardened {
		e.breaker = fault.NewBreaker(d.Name(), c.clock, c.policy.Breaker)
	}
	if c.obsReg != nil {
		c.observeDeviceLocked(d.Name(), e)
	}
	// The entry is built completely before the map carrying it is published,
	// so lock-free readers only ever see finished entries.
	c.publishEntry(d.Name(), e)
}

// Device returns the registered device with the given name, if any.
func (c *Core) Device(name string) (device.Device, bool) {
	e, ok := c.table()[name]
	if !ok {
		return nil, false
	}
	return e.dev, true
}

// Snapshot returns a consistent point-in-time copy of the request counters
// without taking any lock — the registry walk behind Resilience reads the
// copy-on-write device table with one atomic load. Each counter is itself
// exact; a request that completes concurrently with Snapshot may or may not
// be included, but no counter ever goes backwards between snapshots. A
// fleet aggregating Snapshot across hundreds of tenants therefore never
// stops, or even slows, any of them.
func (c *Core) Snapshot() Stats {
	return Stats{
		Execs:       c.execs.Load(),
		Traces:      c.traces.Load(),
		Pings:       c.pings.Load(),
		Errors:      c.errors.Load(),
		Subscribers: c.broker.Stats(), // nil-safe: nil broker reports nil
		Resilience:  c.resilience(),
	}
}

// Handle processes one request and produces its reply. It implements the
// middlebox protocol:
//
//   - exec: execute the command on the target device (REMOTE mode), log the
//     trace record, reply with the device's response.
//   - trace: log a trace record observed by the client (DIRECT mode).
//   - ping: liveness/RTT probe.
func (c *Core) Handle(req wire.Request) wire.Reply {
	switch req.Op {
	case wire.OpPing:
		c.pings.Add(1)
		return wire.Reply{ID: req.ID, Value: "pong"}
	case wire.OpExec:
		return c.handleExec(req)
	case wire.OpTrace:
		return c.handleTrace(req)
	default:
		c.errors.Add(1)
		return wire.Reply{ID: req.ID, Error: fmt.Sprintf("middlebox: unknown op %q", req.Op)}
	}
}

func (c *Core) handleExec(req wire.Request) wire.Reply {
	e, ok := c.lookup(req.Device)
	if !ok {
		c.errors.Add(1)
		return wire.Reply{ID: req.ID, Error: fmt.Sprintf("middlebox: device %q not registered", req.Device)}
	}
	d, br := e.dev, e.breaker
	// Adopt the caller's trace context (or start a fresh trace) before any
	// outcome branches, so shed requests trace too. On a nil recorder this
	// is a nil check returning the zero context, and every span site below
	// is skipped.
	sctx, parent := c.spans.Adopt(span.Context{TraceID: req.TraceID, SpanID: req.SpanID})
	if !br.Allow() {
		return c.shedExec(req, sctx, parent)
	}
	cmd := device.Command{Device: req.Device, Name: req.Name, Args: req.Args}
	start := c.clock.Now()
	value, end, err := c.execute(d, br, cmd, sctx, start)
	if e.hist != nil {
		// Client-visible exec latency, retries and backoff included. The
		// duration comes from the injected clock, so virtual-clock
		// campaigns produce deterministic histograms. Traced execs stamp
		// the landing bucket's exemplar with their trace id, linking
		// rad_middlebox_exec_seconds buckets to /debug/spans trees.
		e.observe(req.Name, end.Sub(start), sctx.TraceID)
	}

	rec := store.Record{
		Time: start, EndTime: end,
		Device: req.Device, Name: req.Name, Args: req.Args,
		Response:  value,
		Procedure: procedureLabel(req.Procedure),
		Run:       req.Run,
		Mode:      "REMOTE",
	}
	reply := wire.Reply{ID: req.ID, Value: value}
	c.execs.Add(1)
	if err != nil {
		rec.Exception = err.Error()
		reply.Error = err.Error()
		c.errors.Add(1)
	}
	if sctx.Valid() {
		// Stamp the record with the exec root's context so downstream span
		// sites (store append, DLQ spill, stream delivery) attach under it;
		// the fields are json:"-" so the persisted dataset is unchanged.
		rec.TraceID, rec.SpanID = sctx.TraceID, sctx.SpanID
		s := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID, ParentID: parent,
			Name: "middlebox.exec", Tenant: c.spanTenant, Start: start, End: end}
		s.SetAttr("device", req.Device)
		s.SetAttr("command", req.Name)
		if err != nil {
			s.Outcome = outcomeOf(err)
		}
		c.spans.Record(s)
	}
	c.log(rec)
	return reply
}

func (c *Core) handleTrace(req wire.Request) wire.Reply {
	rec := store.Record{
		Time:    time.Unix(0, req.StartNanos),
		EndTime: time.Unix(0, req.EndNanos),
		Device:  req.Device, Name: req.Name, Args: req.Args,
		Response: req.Value, Exception: req.Error,
		Procedure: procedureLabel(req.Procedure),
		Run:       req.Run,
		Mode:      "DIRECT",
	}
	c.traces.Add(1)
	if sctx, parent := c.spans.Adopt(span.Context{TraceID: req.TraceID, SpanID: req.SpanID}); sctx.Valid() {
		rec.TraceID, rec.SpanID = sctx.TraceID, sctx.SpanID
		s := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID, ParentID: parent,
			Name: "middlebox.trace", Tenant: c.spanTenant, Start: rec.Time, End: rec.EndTime}
		s.SetAttr("device", req.Device)
		s.SetAttr("command", req.Name)
		if req.Error != "" {
			s.Outcome = span.OutcomeError
		}
		c.spans.Record(s)
	}
	c.log(rec)
	return wire.Reply{ID: req.ID, Value: "ok"}
}

func (c *Core) log(rec store.Record) {
	if c.sink == nil {
		// No sink assigns sequence numbers, but live tailers may still want
		// the feed (e.g. a logging-disabled latency rig).
		if c.broker != nil && !c.brokerWired {
			c.broker.Publish(rec)
		}
		return
	}
	// Trace logging must never fail the command path; the middlebox drops
	// the record if the sink errors (a full disk must not stop the lab).
	// Traced records get a store-append child span bracketing the write —
	// under a virtual clock the bracket is zero-width and deterministic.
	if rec.TraceID != 0 {
		start := c.clock.Now()
		err := c.sink.Append(rec)
		s := span.Span{TraceID: rec.TraceID, SpanID: c.spans.NewID(), ParentID: rec.SpanID,
			Name: "store.append", Tenant: c.spanTenant, Start: start, End: c.clock.Now()}
		if err != nil {
			s.Outcome = span.OutcomeError
		}
		c.spans.Record(s)
	} else {
		_ = c.sink.Append(rec)
	}
	// Sinks that sequence records publish from their own commit hook; for
	// plain sinks the logging path publishes directly.
	if c.broker != nil && !c.brokerWired {
		c.broker.Publish(rec)
	}
}

// procedureLabel applies the paper's labelling rule: commands from
// supervised runs keep their procedure label, everything else is labelled
// "unknown procedure".
func procedureLabel(p string) string {
	if p == "" {
		return store.UnknownProcedure
	}
	return p
}

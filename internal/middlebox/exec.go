package middlebox

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/fault"
	"rad/internal/obs/span"
	"rad/internal/store"
	"rad/internal/wire"
)

// Retry backoff bounds: the jittered exponential delay between attempts
// starts near retryBase and is capped at retryMax, charged to the clock.
const (
	retryBase = 50 * time.Millisecond
	retryMax  = 2 * time.Second
)

// DeviceUnavailable prefixes the error a shed request gets and the
// synthetic Exception the middlebox traces for it, so IDS consumers see
// failure-mode traffic instead of silence when a breaker opens.
const DeviceUnavailable = "DEVICE_UNAVAILABLE"

// ExecPolicy hardens the REMOTE-mode exec path against flaky devices: a
// per-attempt deadline, jittered exponential-backoff retries for
// idempotent (non-mutating) command types, and a per-device circuit
// breaker that sheds load instead of hanging on a dead device. The zero
// value disables all of it and keeps the seed-exact single-attempt path.
type ExecPolicy struct {
	// Timeout is the per-attempt exec deadline; 0 disables. Under a real
	// clock the attempt is abandoned when the deadline fires (the device
	// goroutine is left to finish into a buffered channel); under a
	// virtual clock the attempt's virtual elapsed time is checked after
	// the fact, which keeps campaigns deterministic.
	Timeout time.Duration
	// Retries is the number of extra attempts granted to idempotent
	// commands after an infrastructure failure, spaced by a jittered
	// exponential backoff (retryBase up to retryMax). Mutating commands
	// never retry: a dropped response may mean the command executed.
	Retries int
	// RetrySeed seeds the backoff jitter stream (0 selects 1).
	RetrySeed uint64
	// Breaker configures the per-device circuit breaker; a zero Threshold
	// disables it.
	Breaker fault.BreakerConfig
}

// SetExecPolicy installs the resilience policy. Call before serving
// traffic: it rebuilds the per-device breakers and is not synchronized
// with in-flight execs.
func (c *Core) SetExecPolicy(p ExecPolicy) {
	c.cfgMu.Lock()
	defer c.cfgMu.Unlock()
	seed := p.RetrySeed
	if seed == 0 {
		seed = 1
	}
	c.policy = p
	c.hardened = p.Timeout > 0 || p.Retries > 0 || p.Breaker.Threshold > 0
	_, c.virtual = c.clock.(interface{ Advance(time.Duration) })
	c.realDeadline = !c.virtual && p.Timeout > 0
	c.retryRng = rand.New(rand.NewPCG(seed, seed^0xbf58476d1ce4e5b9))
	if c.hardened && c.idempotent == nil {
		c.idempotent = sharedIdempotent()
	}
	// Rebuild the registry copy-on-write: entries are immutable once
	// published, so the breaker swap constructs fresh entries rather than
	// mutating ones a lock-free reader may hold.
	old := c.table()
	next := make(map[string]*deviceEntry, len(old))
	for name, e := range old {
		ne := &deviceEntry{dev: e.dev, hist: e.hist, histOther: e.histOther}
		if c.hardened {
			ne.breaker = fault.NewBreaker(name, c.clock, p.Breaker)
		}
		next[name] = ne
	}
	c.entries.Store(&next)
}

// sharedIdempotent builds the "Device.Name" → idempotent catalog once per
// process and shares the (read-only) map across every Core — a fleet of
// hundreds of tenant Cores pays for one copy, not N.
var sharedIdempotent = sync.OnceValue(idempotentCatalog)

// idempotentCatalog maps "Device.Name" to true for the catalog's
// non-mutating (read-only) command types — the ones safe to re-issue when
// a response is lost. Unknown commands are conservatively non-idempotent.
func idempotentCatalog() map[string]bool {
	m := make(map[string]bool)
	for key, spec := range device.CatalogByKey() {
		if !spec.Mutating {
			m[key] = true
		}
	}
	return m
}

// lookup resolves a device's entry — device, breaker, histograms — with one
// atomic load and one map access; no lock.
func (c *Core) lookup(name string) (*deviceEntry, bool) {
	e, ok := c.table()[name]
	return e, ok
}

// shedExec rejects a request whose breaker is open: no device contact, an
// immediate DEVICE_UNAVAILABLE reply, and a synthetic trace record so the
// outage is visible in the dataset instead of being a silence. Sheds trace
// like any other outcome (a zero-width root span with outcome "shed"), so
// /debug/spans?outcome=shed answers "which tenants are we rejecting".
func (c *Core) shedExec(req wire.Request, sctx span.Context, parent uint64) wire.Reply {
	c.shed.Add(1)
	c.errors.Add(1)
	now := c.clock.Now()
	msg := fmt.Sprintf("%s: %s: circuit open", DeviceUnavailable, req.Device)
	rec := store.Record{
		Time: now, EndTime: now,
		Device: req.Device, Name: req.Name, Args: req.Args,
		Exception: msg,
		Procedure: procedureLabel(req.Procedure),
		Run:       req.Run,
		Mode:      "REMOTE",
	}
	if sctx.Valid() {
		rec.TraceID, rec.SpanID = sctx.TraceID, sctx.SpanID
		s := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID, ParentID: parent,
			Name: "middlebox.exec", Tenant: c.spanTenant, Outcome: span.OutcomeShed,
			Start: now, End: now}
		s.SetAttr("device", req.Device)
		s.SetAttr("command", req.Name)
		s.SetAttr("breaker", "open")
		c.spans.Record(s)
	}
	c.log(rec)
	return wire.Reply{ID: req.ID, Error: msg}
}

// outcomeOf classifies an exec error for its span.
func outcomeOf(err error) string {
	if errors.Is(err, fault.ErrDeadline) {
		return span.OutcomeTimeout
	}
	return span.OutcomeError
}

// recordAttempt records one hardened exec attempt's span, annotated with
// the attempt number, the breaker's state after the attempt was charged,
// and — when an injector fired — the fault class. Only attempts on the
// retry path reach here; the fault-free single attempt is represented by
// the root exec span itself.
func (c *Core) recordAttempt(sctx span.Context, attempt int, br *fault.Breaker, start, end time.Time, err error) {
	if !sctx.Valid() {
		return
	}
	s := span.Span{TraceID: sctx.TraceID, SpanID: c.spans.NewID(), ParentID: sctx.SpanID,
		Name: "exec.attempt", Tenant: c.spanTenant, Start: start, End: end}
	s.SetAttr("attempt", strconv.Itoa(attempt))
	if br != nil {
		s.SetAttr("breaker", br.State().String())
	}
	if err != nil {
		s.Outcome = outcomeOf(err)
		var f *fault.Fault
		if errors.As(err, &f) {
			s.SetAttr("fault", f.Kind.String())
		}
	}
	c.spans.Record(s)
}

// execute runs cmd on d under the exec policy, from the first attempt's
// start, and returns the final attempt's value, end time and error. Under
// the zero policy it makes one attempt with no accounting. When hardened,
// every attempt's outcome feeds the breaker; an infrastructure failure
// counts in infraErrs and, for idempotent commands, earns backoff-spaced
// extra attempts, while a device-reported command error returns at once —
// it is an answer, not an outage. Attempts on the retry path (a failed
// first attempt and every later one) record an exec.attempt span; the
// fault-free single attempt is represented by the root exec span alone.
func (c *Core) execute(d device.Device, br *fault.Breaker, cmd device.Command, sctx span.Context, start time.Time) (string, time.Time, error) {
	value, end, err := c.execAttempt(d, cmd, start)
	if !c.hardened {
		return value, end, err
	}
	attempts := 1
	for attempt := 1; ; attempt++ {
		infra := err != nil && fault.IsInfra(err)
		br.Done(infra)
		if infra || attempt > 1 {
			c.recordAttempt(sctx, attempt, br, start, end, err)
		}
		if !infra {
			return value, end, err
		}
		c.infraErrs.Add(1)
		if attempt == 1 && c.policy.Retries > 0 && c.idempotent[cmd.Device+"."+cmd.Name] {
			attempts += c.policy.Retries
		}
		if attempt >= attempts {
			return value, end, err
		}
		c.retries.Add(1)
		c.clock.Sleep(c.backoff(attempt - 1))
		start = c.clock.Now()
		value, end, err = c.execAttempt(d, cmd, start)
	}
}

// execAttempt runs one deadline-bounded attempt. Under a real clock the
// attempt is abandoned when the deadline fires (execDeadlined); under a
// virtual clock a hang advances simulated time and returns promptly, so
// the deadline is a post-hoc elapsed-time check — no goroutine, no
// nondeterminism.
func (c *Core) execAttempt(d device.Device, cmd device.Command, start time.Time) (string, time.Time, error) {
	if c.realDeadline {
		return c.execDeadlined(d, cmd)
	}
	value, err := d.Exec(cmd)
	end := c.clock.Now()
	if t := c.policy.Timeout; t > 0 && end.Sub(start) > t {
		c.timeouts.Add(1)
		return "", end, fmt.Errorf("middlebox: %s: %w (timeout %s)", cmd.Device, fault.ErrDeadline, t)
	}
	return value, end, err
}

// backoff draws the next jittered retry delay from the policy's seeded
// stream.
func (c *Core) backoff(attempt int) time.Duration {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	return fault.Backoff(attempt, retryBase, retryMax, c.retryRng)
}

// execDeadlined runs one attempt under a real-clock deadline: the attempt
// runs in a goroutine and is abandoned when the timer fires; the late
// result lands in a buffered channel, so nothing leaks.
func (c *Core) execDeadlined(d device.Device, cmd device.Command) (string, time.Time, error) {
	t := c.policy.Timeout
	type result struct {
		value string
		err   error
	}
	done := make(chan result, 1)
	go func() {
		v, err := d.Exec(cmd)
		done <- result{v, err}
	}()
	timer := time.NewTimer(t)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.value, c.clock.Now(), r.err
	case <-timer.C:
		c.timeouts.Add(1)
		return "", c.clock.Now(), fmt.Errorf("middlebox: %s: %w (timeout %s)", cmd.Device, fault.ErrDeadline, t)
	}
}

// Resilience is the hardened exec path's observability: retry/timeout/shed
// totals plus every per-device breaker's state and transition counters.
type Resilience struct {
	Timeouts    uint64 // attempts that exceeded the exec deadline
	Retries     uint64 // extra attempts made for idempotent commands
	Shed        uint64 // requests rejected by an open breaker
	InfraErrors uint64 // infra-classified attempt failures (includes retried ones)
	Breakers    []fault.BreakerStats
}

// resilience snapshots the counters and the breakers (sorted by device so
// snapshots are stable). Lock-free: the registry walk reads the
// copy-on-write table.
func (c *Core) resilience() Resilience {
	r := Resilience{
		Timeouts:    c.timeouts.Load(),
		Retries:     c.retries.Load(),
		Shed:        c.shed.Load(),
		InfraErrors: c.infraErrs.Load(),
	}
	for _, e := range c.table() {
		if e.breaker != nil {
			r.Breakers = append(r.Breakers, e.breaker.Stats())
		}
	}
	sort.Slice(r.Breakers, func(i, j int) bool { return r.Breakers[i].Device < r.Breakers[j].Device })
	return r
}

package stream

// ResilientTail is the self-healing consumer of the session-resilience
// layer: a tail client that survives the server vanishing. It tracks the
// highest trace sequence number it has delivered, and when the connection
// dies it redials with jittered exponential backoff, redoes the wire
// handshake, and resumes from lastSeq+1 (Subscribe.ResumeFrom) —
// so its caller observes one continuous, gap-free, duplicate-free record
// stream across any number of server restarts. The paper's three-month
// collection campaign is the motivating consumer: the pipeline must
// self-heal rather than page a human.
//
// Degradations are surfaced, never silent: a resume that predates the
// store's retention floor yields the server's EventResumeGap notice (and
// the gap total in Stats), and a resume the server cannot honor at all
// (e.g. a crash lost the unsynced tail of the store) falls back to a full
// re-subscribe with the already-delivered prefix deduplicated locally.

import (
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"rad/internal/fault"
	"rad/internal/wire"
)

// ResilientConfig parameterizes a ResilientTail.
type ResilientConfig struct {
	// Addr is the stream listener to dial (and redial).
	Addr string
	// Subscribe is the base subscription: filters, snapshot, policy,
	// tenant. Op is set by the dialer; ResumeFrom is managed by the tail
	// itself on reconnects.
	Subscribe wire.Subscribe
	// BackoffBase/BackoffMax shape the jittered exponential redial backoff
	// (defaults 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxAttempts bounds consecutive failed reconnect attempts before Recv
	// gives up and returns the dial error; 0 retries forever.
	MaxAttempts int
	// Seed seeds the backoff-jitter PRNG, making the redial schedule
	// reproducible (the internal/fault PCG convention).
	Seed uint64
	// IdleTimeout, when set, bounds how long a Recv waits for any frame
	// (events or heartbeat pings) before declaring the connection half-open
	// and redialing. Pair it with the server's heartbeat interval: any
	// value comfortably above it turns a silent half-open connection into a
	// reconnect instead of a hang.
	IdleTimeout time.Duration
}

// ResilientStats is a ResilientTail's delivery accounting.
type ResilientStats struct {
	Reconnects uint64 // successful re-subscriptions after the first
	Duplicates uint64 // re-delivered records suppressed by the seq cursor
	GapRecords uint64 // records lost to retention (sum of resume-gap notices)
	Delivered  uint64 // trace records handed to the caller
	LastSeq    uint64 // highest delivered trace seq (valid once Delivered > 0)
}

// ResilientTail is an auto-reconnecting tail subscription. Recv is safe
// for one consumer goroutine; Close and Stats may be called concurrently.
type ResilientTail struct {
	cfg ResilientConfig
	rng *rand.Rand

	mu     sync.Mutex
	client *Client
	closed bool
	done   chan struct{}

	everConnected bool
	got           bool   // at least one trace record delivered
	lastSeq       uint64 // highest delivered trace seq
	fullResync    bool   // next connect re-subscribes from scratch
	stats         ResilientStats
}

// NewResilientTail builds the tail; the first connection is dialed lazily
// by the first Recv.
func NewResilientTail(cfg ResilientConfig) *ResilientTail {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &ResilientTail{
		cfg:  cfg,
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		done: make(chan struct{}),
	}
}

var errTailClosed = errors.New("stream: resilient tail closed")

// connect dials and subscribes, resuming from the seq cursor when one
// exists (unless a failed resume demanded a full resync).
func (rt *ResilientTail) connect() (*Client, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, errTailClosed
	}
	req := rt.cfg.Subscribe
	if rt.got && !rt.fullResync {
		req.ResumeFrom = rt.lastSeq + 1
		req.Snapshot = false // resume implies snapshot-then-follow server-side
	}
	rt.mu.Unlock()

	c, err := Dial(rt.cfg.Addr, req)
	if err != nil {
		return nil, err
	}
	if rt.cfg.IdleTimeout > 0 {
		c.SetIdleTimeout(rt.cfg.IdleTimeout)
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		_ = c.Close()
		return nil, errTailClosed
	}
	if rt.everConnected {
		rt.stats.Reconnects++
	}
	rt.everConnected = true
	rt.fullResync = false
	rt.client = c
	rt.mu.Unlock()
	return c, nil
}

// current returns the live client, connecting if there is none.
func (rt *ResilientTail) current() (*Client, error) {
	rt.mu.Lock()
	c := rt.client
	closed := rt.closed
	rt.mu.Unlock()
	if closed {
		return nil, errTailClosed
	}
	if c != nil {
		return c, nil
	}
	return rt.connect()
}

// drop discards a dead client so the next Recv redials.
func (rt *ResilientTail) drop(c *Client) {
	_ = c.Close()
	rt.mu.Lock()
	if rt.client == c {
		rt.client = nil
	}
	rt.mu.Unlock()
}

// sleep waits out one backoff delay; false means the tail was closed.
func (rt *ResilientTail) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-rt.done:
		return false
	}
}

// Recv returns the next event, reconnecting and resuming across
// connection failures. Trace records arrive exactly once, in sequence
// order per subscription; EventResumeGap and EventSnapshotEnd frames pass
// through so the caller sees degradations and replay boundaries. It
// returns io.EOF after Close, a *SubscribeError when the server refuses a
// fresh subscription outright, and the last transport error once
// MaxAttempts consecutive reconnects have failed.
func (rt *ResilientTail) Recv() (wire.Event, error) {
	attempt := 0
	for {
		c, err := rt.current()
		if err == nil {
			var ev wire.Event
			ev, err = c.Recv()
			if err == nil {
				attempt = 0
				if !rt.note(&ev) {
					continue // duplicate suppressed by the seq cursor
				}
				return ev, nil
			}
			rt.drop(c)
		}
		if errors.Is(err, errTailClosed) {
			return wire.Event{}, io.EOF
		}
		var se *SubscribeError
		if errors.As(err, &se) {
			rt.mu.Lock()
			resuming := rt.got && !rt.fullResync
			if resuming {
				// The server refused the resume point (a crash may have lost
				// the store's unsynced tail). Degrade to a full re-subscribe;
				// the seq cursor deduplicates the re-delivered prefix.
				rt.fullResync = true
				rt.mu.Unlock()
				continue
			}
			rt.mu.Unlock()
			return wire.Event{}, err // a fresh subscription was refused: permanent
		}
		attempt++
		if rt.cfg.MaxAttempts > 0 && attempt >= rt.cfg.MaxAttempts {
			return wire.Event{}, err
		}
		if !rt.sleep(fault.Backoff(attempt-1, rt.cfg.BackoffBase, rt.cfg.BackoffMax, rt.rng)) {
			return wire.Event{}, io.EOF
		}
	}
}

// note updates the seq cursor and stats for one received event; it
// reports whether the event should reach the caller (duplicates do not).
func (rt *ResilientTail) note(ev *wire.Event) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch ev.Kind {
	case wire.EventTrace:
		seq := ev.Record.Seq
		if rt.got && seq <= rt.lastSeq {
			rt.stats.Duplicates++
			return false
		}
		rt.got = true
		rt.lastSeq = seq
		rt.stats.Delivered++
		rt.stats.LastSeq = seq
		return true
	case wire.EventResumeGap:
		rt.stats.GapRecords += ev.Gap
		return true
	default:
		return true
	}
}

// Stats snapshots the tail's delivery accounting.
func (rt *ResilientTail) Stats() ResilientStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// Close stops the tail: any blocked Recv (including one sleeping out a
// backoff) returns io.EOF. Idempotent.
func (rt *ResilientTail) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	c := rt.client
	rt.client = nil
	close(rt.done)
	rt.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	return nil
}

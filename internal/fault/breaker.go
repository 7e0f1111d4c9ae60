package fault

import (
	"sync"
	"time"

	"rad/internal/simclock"
)

// BreakerConfig tunes a circuit breaker. The zero value of Threshold
// disables the breaker entirely (NewBreaker returns nil).
type BreakerConfig struct {
	// Threshold is the number of consecutive infrastructure failures that
	// trips the breaker open. <= 0 disables the breaker.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Defaults to DefaultCooldown.
	Cooldown time.Duration
	// Probes is the number of consecutive successful half-open probes
	// required to close the breaker again. Defaults to 1.
	Probes int
}

// DefaultCooldown is the open→half-open delay when the config leaves
// Cooldown unset.
const DefaultCooldown = 30 * time.Second

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are shed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe at a time is admitted; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Breaker is a per-device circuit breaker: closed → open after Threshold
// consecutive infrastructure failures, open → half-open after Cooldown,
// half-open → closed after Probes successful probes (or back to open on a
// probe failure). Safe for concurrent use: every method takes mu.
type Breaker struct {
	name  string
	clock simclock.Clock
	cfg   BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive infra failures while closed
	reopenAt  time.Time // when an open breaker admits a probe
	probing   bool      // a half-open probe is in flight
	successes int       // consecutive successful probes while half-open
	opens     uint64    // transitions into the open state
	probes    uint64    // half-open probes admitted
	sheds     uint64    // requests rejected while open/half-open
}

// NewBreaker builds a breaker for the named device. A non-positive
// Threshold returns nil; a nil *Breaker admits everything and records
// nothing, so callers can hold one unconditionally.
func NewBreaker(name string, clock simclock.Clock, cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 1
	}
	return &Breaker{name: name, clock: clock, cfg: cfg}
}

// Allow reports whether a request may proceed. When the breaker is open
// past its cooldown it transitions to half-open and admits the caller as
// the probe; while a probe is in flight (or the cooldown is still
// running) requests are shed.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock.Now().Before(b.reopenAt) {
			b.sheds++
			return false
		}
		b.state, b.failures = BreakerHalfOpen, 0
		b.successes = 0
		fallthrough
	default: // half-open
		if b.probing {
			b.sheds++
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// Done reports an admitted request's outcome: infra is true when the
// request failed with an infrastructure error (IsInfra), false for a
// success or a device-reported command error (a device that answers is a
// healthy device).
func (b *Breaker) Done(infra bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if !infra {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.tripLocked()
		}
	case BreakerHalfOpen:
		b.probing = false
		if infra {
			b.tripLocked()
			return
		}
		b.successes++
		if b.successes >= b.cfg.Probes {
			b.state, b.failures = BreakerClosed, 0
		}
	case BreakerOpen:
		// A stale attempt admitted before the trip finished; its outcome
		// no longer matters.
	}
}

// tripLocked moves the breaker to open and starts the cooldown. The
// failure count carries over (it reads as Threshold while open; a close
// resets it). Caller holds b.mu.
func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.reopenAt = b.clock.Now().Add(b.cfg.Cooldown)
	b.probing = false
	b.opens++
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStats is one breaker's observability snapshot.
type BreakerStats struct {
	Device   string
	State    string
	Opens    uint64 // transitions into open (including re-opens from half-open)
	Probes   uint64 // half-open probes admitted
	Sheds    uint64 // requests rejected while open/half-open
	Failures int    // current consecutive-failure count while closed
}

// Stats snapshots the breaker's counters. A nil breaker reports a zero
// value.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: BreakerClosed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		Device:   b.name,
		State:    b.state.String(),
		Opens:    b.opens,
		Probes:   b.probes,
		Sheds:    b.sheds,
		Failures: b.failures,
	}
}

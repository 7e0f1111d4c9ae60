package fault

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rad/internal/simclock"
)

// step is one scripted breaker interaction: an Allow check (with its
// expected admission), an optional reported outcome, or a clock advance.
type step struct {
	op      string        // "allow", "done-ok", "done-infra", "advance"
	want    bool          // for "allow": expected admission
	advance time.Duration // for "advance"
	state   BreakerState  // expected state after the step
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, Cooldown: time.Minute, Probes: 1}
	cases := []struct {
		name  string
		cfg   BreakerConfig
		steps []step
	}{
		{
			name: "stays closed below threshold",
			cfg:  cfg,
			steps: []step{
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "allow", want: true, state: BreakerClosed},
			},
		},
		{
			name: "success resets the failure streak",
			cfg:  cfg,
			steps: []step{
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "done-ok", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed}, // streak is 2, not 4
				{op: "allow", want: true, state: BreakerClosed},
			},
		},
		{
			name: "threshold consecutive failures trip it open",
			cfg:  cfg,
			steps: []step{
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerOpen},
				{op: "allow", want: false, state: BreakerOpen}, // shed during cooldown
				{op: "allow", want: false, state: BreakerOpen},
			},
		},
		{
			name: "cooldown admits exactly one half-open probe",
			cfg:  cfg,
			steps: []step{
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerOpen},
				{op: "advance", advance: time.Minute, state: BreakerOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},  // the probe
				{op: "allow", want: false, state: BreakerHalfOpen}, // probe in flight
			},
		},
		{
			name: "probe success closes",
			cfg:  cfg,
			steps: []step{
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerOpen},
				{op: "advance", advance: time.Minute, state: BreakerOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "done-ok", state: BreakerClosed},
				{op: "allow", want: true, state: BreakerClosed},
			},
		},
		{
			name: "probe failure re-opens and restarts the cooldown",
			cfg:  cfg,
			steps: []step{
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerClosed},
				{op: "done-infra", state: BreakerOpen},
				{op: "advance", advance: time.Minute, state: BreakerOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "done-infra", state: BreakerOpen},
				{op: "allow", want: false, state: BreakerOpen}, // cooldown restarted
				{op: "advance", advance: time.Minute, state: BreakerOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "done-ok", state: BreakerClosed},
			},
		},
		{
			name: "two probes required when configured",
			cfg:  BreakerConfig{Threshold: 1, Cooldown: time.Minute, Probes: 2},
			steps: []step{
				{op: "done-infra", state: BreakerOpen},
				{op: "advance", advance: time.Minute, state: BreakerOpen},
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "done-ok", state: BreakerHalfOpen}, // 1 of 2
				{op: "allow", want: true, state: BreakerHalfOpen},
				{op: "done-ok", state: BreakerClosed}, // 2 of 2
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := simclock.NewVirtual(time.Unix(0, 0))
			b := NewBreaker("C9", clock, tc.cfg)
			for i, s := range tc.steps {
				switch s.op {
				case "allow":
					if got := b.Allow(); got != s.want {
						t.Fatalf("step %d: Allow() = %v, want %v", i, got, s.want)
					}
				case "done-ok":
					b.Done(false)
				case "done-infra":
					b.Done(true)
				case "advance":
					clock.Advance(s.advance)
				default:
					t.Fatalf("step %d: bad op %q", i, s.op)
				}
				if got := b.State(); got != s.state {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.op, got, s.state)
				}
			}
		})
	}
}

func TestBreakerStatsCounters(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker("IKA", clock, BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	b.Done(true)
	b.Done(true) // trips
	if !b.Allow() == false {
		t.Fatal("expected shed while open")
	}
	b.Allow() // another shed
	clock.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("expected the probe to be admitted")
	}
	b.Done(true) // probe fails: re-open
	st := b.Stats()
	if st.Device != "IKA" || st.State != "open" {
		t.Errorf("stats identity = %+v", st)
	}
	if st.Opens != 2 {
		t.Errorf("opens = %d, want 2 (trip + probe failure)", st.Opens)
	}
	if st.Probes != 1 {
		t.Errorf("probes = %d, want 1", st.Probes)
	}
	if st.Sheds != 2 {
		t.Errorf("sheds = %d, want 2", st.Sheds)
	}
}

func TestBreakerDisabledAndNil(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if b := NewBreaker("C9", clock, BreakerConfig{}); b != nil {
		t.Fatal("zero threshold should disable the breaker")
	}
	var b *Breaker
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatal("nil breaker must admit everything")
		}
		b.Done(true)
	}
	if got := b.State(); got != BreakerClosed {
		t.Errorf("nil breaker state = %v", got)
	}
	if st := b.Stats(); st.State != "closed" {
		t.Errorf("nil breaker stats = %+v", st)
	}
}

// TestBreakerConcurrentHalfOpen hammers a half-open breaker from many
// goroutines: at most one probe may be in flight at any instant, and every
// Allow call is accounted for as exactly one probe or one shed.
func TestBreakerConcurrentHalfOpen(t *testing.T) {
	const workers, calls = 8, 500
	clock := simclock.NewVirtual(time.Unix(0, 0))
	// Probes is out of reach, so successful probes keep the breaker
	// half-open for the whole test.
	b := NewBreaker("C9", clock, BreakerConfig{Threshold: 1, Cooldown: time.Minute, Probes: 1 << 30})
	b.Done(true)
	clock.Advance(time.Minute)

	var inFlight, maxInFlight, admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if !b.Allow() {
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				n := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				inFlight.Add(-1)
				b.Done(false)
			}
		}()
	}
	wg.Wait()

	if m := maxInFlight.Load(); m > 1 {
		t.Fatalf("%d probes in flight at once, want at most 1", m)
	}
	st := b.Stats()
	if st.State != "half-open" {
		t.Fatalf("state = %s, want half-open", st.State)
	}
	if int64(st.Probes) != admitted.Load() || int64(st.Sheds) != shed.Load() {
		t.Fatalf("stats probes/sheds = %d/%d, callers saw %d/%d", st.Probes, st.Sheds, admitted.Load(), shed.Load())
	}
	if got := st.Probes + st.Sheds; got != workers*calls {
		t.Fatalf("probes + sheds = %d, want %d calls", got, workers*calls)
	}
}

// TestBackoffTiming pins the retry schedule against the simclock contract:
// exponential growth from base, capped at max, jittered within [d/2, 3d/2),
// and byte-for-byte reproducible for a fixed seed.
func TestBackoffTiming(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	mk := func() *rand.Rand { return rand.New(rand.NewPCG(7, 7)) }

	rng := mk()
	var seq []time.Duration
	for attempt := 0; attempt < 8; attempt++ {
		d := Backoff(attempt, base, max, rng)
		seq = append(seq, d)
		raw := base << attempt
		if raw > max || raw <= 0 {
			raw = max
		}
		if d < raw/2 || d >= raw/2+raw {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, raw/2, raw/2+raw)
		}
	}
	// Capped tail: attempts past the cap draw from the same [max/2, 3max/2) band.
	for i := 4; i < 8; i++ { // 100ms<<4 = 1.6s > max
		if seq[i] < max/2 || seq[i] >= max/2+max {
			t.Errorf("capped attempt %d: %v outside cap band", i, seq[i])
		}
	}
	// Determinism: a fresh identically-seeded stream reproduces the schedule.
	rng2 := mk()
	for attempt := 0; attempt < 8; attempt++ {
		if d := Backoff(attempt, base, max, rng2); d != seq[attempt] {
			t.Fatalf("attempt %d: %v != %v (schedule not reproducible)", attempt, d, seq[attempt])
		}
	}
	// Virtual-clock integration: charging the schedule to a simclock
	// advances it by exactly the summed delays.
	clock := simclock.NewVirtual(time.Unix(0, 0))
	var total time.Duration
	rng3 := mk()
	for attempt := 0; attempt < 8; attempt++ {
		d := Backoff(attempt, base, max, rng3)
		clock.Sleep(d)
		total += d
	}
	if got := clock.Now().Sub(time.Unix(0, 0)); got != total {
		t.Errorf("virtual clock advanced %v, want %v", got, total)
	}
	// Defaults kick in for non-positive bounds.
	if d := Backoff(0, 0, 0, mk()); d < 25*time.Millisecond || d >= 75*time.Millisecond {
		t.Errorf("default backoff %v outside [25ms, 75ms)", d)
	}
}

package middlebox

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/fault"
	"rad/internal/simclock"
	"rad/internal/wire"
)

// BenchmarkExecWithBreaker measures what the hardened exec path costs when
// nothing is failing. "baseline" is a zero-policy core; "hardened" adds the
// per-exec deadline check and a closed circuit breaker (one mutex-guarded
// Allow and Done per exec). The numbers are context, not a gate: the
// lab-replay benchmark prices the serving path end to end.
func BenchmarkExecWithBreaker(b *testing.B) {
	build := func(b *testing.B, harden bool) *Core {
		b.Helper()
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		core := NewCore(clock, nil) // no sink: isolate the exec path
		core.Register(c9.New(device.NewEnv(clock, 1)))
		if harden {
			core.SetExecPolicy(ExecPolicy{
				Timeout: 20 * time.Second,
				Retries: 2,
				Breaker: fault.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Minute},
			})
		}
		if r := core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init}); r.Error != "" {
			b.Fatalf("init: %s", r.Error)
		}
		return core
	}
	req := wire.Request{ID: 2, Op: wire.OpExec, Device: "C9", Name: "MVNG"}

	b.Run("baseline", func(b *testing.B) {
		core := build(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
	b.Run("hardened", func(b *testing.B) {
		core := build(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
}

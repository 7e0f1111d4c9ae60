package middlebox

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/fault"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/wire"
)

// BenchmarkExecObserved prices the observability layer on the fault-free
// exec path: "baseline" is the hardened exec path (deadline + closed
// breaker, no metrics), "observed" adds the full Observe wiring — whose
// only per-exec cost is one histogram map lookup and one sharded
// latency-histogram observe (a binary search plus two atomic adds); every
// counter is a pull-based mirror. The numbers are context, not a gate
// (EXPERIMENTS.md records them).
func BenchmarkExecObserved(b *testing.B) {
	build := func(b *testing.B, observe bool) *Core {
		b.Helper()
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		core := NewCore(clock, nil) // no sink: isolate the exec path
		core.Register(c9.New(device.NewEnv(clock, 1)))
		core.SetExecPolicy(ExecPolicy{
			Timeout: 20 * time.Second,
			Retries: 2,
			Breaker: fault.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Minute},
		})
		if observe {
			core.Observe(obs.NewRegistry())
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
	b.Run("observed", func(b *testing.B) {
		core := build(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
	// "traced" prices the opt-in span recorder: one trace-context adopt,
	// span construction, one ring write under the sharded mutex, and the
	// histogram exemplar store (EXPERIMENTS.md records the decomposition).
	b.Run("traced", func(b *testing.B) {
		core := build(b, true)
		core.SetSpans(span.NewRecorder(span.Config{Seed: 1}), "")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
	// "traced-sampled" is the production relief valve: with 1-in-1024
	// sampling, non-kept traces skip the ring write entirely.
	b.Run("traced-sampled", func(b *testing.B) {
		core := build(b, true)
		core.SetSpans(span.NewRecorder(span.Config{Seed: 1, SampleEvery: 1024}), "")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
}

package middlebox

// Graceful-drain tests for the exec listener. Test names deliberately
// match the CI resilience shakeout's -run filter
// (Resume|Reconnect|Drain|Heartbeat).

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rad/internal/wire"
)

// slowHandler answers after a fixed delay; release-gated variants block
// until allowed.
type slowHandler struct {
	delay time.Duration
	gate  chan struct{} // when non-nil, Handle blocks on it
}

func (h *slowHandler) Handle(req wire.Request) wire.Reply {
	if h.gate != nil {
		<-h.gate
	}
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	return wire.Reply{ID: req.ID, Value: "ok"}
}

// TestDrainFlushesInFlightReply: a request already being handled when
// Drain starts still gets its reply — drain severs only the read
// direction, never a reply mid-flight.
func TestDrainFlushesInFlightReply(t *testing.T) {
	srv := NewHandlerServer(&slowHandler{delay: 50 * time.Millisecond}, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wc.WriteFrame(wire.Request{ID: 7, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the handler pick the request up

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	var reply wire.Reply
	if err := wc.ReadFrame(&reply); err != nil {
		t.Fatalf("in-flight reply lost to drain: %v", err)
	}
	if reply.ID != 7 || reply.Value != "ok" {
		t.Fatalf("reply = %+v", reply)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The connection is gone afterwards: the drained server reads no more.
	if err := wc.WriteFrame(wire.Request{ID: 8, Op: wire.OpPing}); err == nil {
		if err := wc.ReadFrame(&reply); err == nil {
			t.Fatal("drained server answered a post-drain request")
		}
	}
}

// TestDrainTimeoutSeversStragglers: a handler that never returns within
// the budget is cut off Close-style and Drain reports the deadline.
func TestDrainTimeoutSeversStragglers(t *testing.T) {
	gate := make(chan struct{})
	srv := NewHandlerServer(&slowHandler{gate: gate}, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(gate)

	nc, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the handler is now stuck on the gate

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck handler returned %v, want deadline exceeded", err)
	}
}

// TestDrainReleasesGoroutines: repeated serve/drain cycles with live
// connections and an idle timeout return to the baseline goroutine count.
func TestDrainReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		srv := NewHandlerServer(&slowHandler{}, NetworkProfile{}, uint64(round+1))
		srv.SetIdleTimeout(time.Second)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			nc, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				defer nc.Close()
				if err := wc.WriteFrame(wire.Request{ID: id, Op: wire.OpPing}); err != nil {
					return
				}
				var reply wire.Reply
				_ = wc.ReadFrame(&reply)
			}(uint64(i))
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("round %d drain: %v", round, err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestHeartbeatIdleTimeoutReapsHalfOpenConn: a connection that goes silent
// past the idle deadline is reaped even though its peer never closed —
// the half-open case SetIdleTimeout exists for. The deadline covers the
// handshake too: a peer that connects and sends nothing, or only part of
// the preamble, is reaped the same way.
func TestHeartbeatIdleTimeoutReapsHalfOpenConn(t *testing.T) {
	srv := NewHandlerServer(&slowHandler{}, NetworkProfile{}, 1)
	srv.SetIdleTimeout(30 * time.Millisecond)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// awaitReap requires the server to close nc: a read on our side sees
	// EOF (or a reset) rather than blocking until our own deadline.
	awaitReap := func(t *testing.T, nc net.Conn) {
		t.Helper()
		_ = nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		var buf [16]byte
		n, err := nc.Read(buf[:])
		if err == nil {
			t.Fatalf("idle connection still served %d bytes", n)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("idle connection never reaped: read timed out on our side, not closed by the server")
		}
	}

	t.Run("silent after a round trip", func(t *testing.T) {
		nc, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
		var reply wire.Reply
		if err := wc.ReadFrame(&reply); err != nil {
			t.Fatal(err)
		}
		awaitReap(t, nc)
	})
	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"silent before the handshake", nil},
		{"partial preamble", []byte("RA")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(tc.opening); err != nil {
				t.Fatal(err)
			}
			awaitReap(t, nc)
		})
	}
}

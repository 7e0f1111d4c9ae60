package middlebox

import (
	"net"
	"sync"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/wire"
)

// TestServerSurvivesGarbageBytes: the middlebox is the trusted component; a
// misbehaving client must only lose its own connection. Each opening below
// is refused at the handshake — the connection closes with no reply — and
// the next client is served normally.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	clock := simclock.Real{}
	core := NewCore(clock, store.NewMemStore())
	core.Register(c9.New(device.NewEnv(clock, 1)))
	srv := NewServer(core, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"absurd length prefix", []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x', 'y'}},
		// A v1 peer: its 4-byte length header opens with 0x00, not the
		// preamble.
		{"v1 JSON frame", v1Frame(t, wire.Request{ID: 1, Op: wire.OpPing})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer bad.Close()
			if _, err := bad.Write(tc.opening); err != nil {
				t.Fatal(err)
			}
			if err := silentClose(bad); err != nil {
				t.Error(err)
			}

			// The next client works fine afterwards.
			good, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer good.Close()
			if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
				t.Fatal(err)
			}
			var reply wire.Reply
			if err := wc.ReadFrame(&reply); err != nil {
				t.Fatalf("healthy client after garbage client: %v", err)
			}
			if reply.Value != "pong" {
				t.Errorf("reply = %+v", reply)
			}
		})
	}
}

// TestServerSurvivesNonJSONPayload: a client that completes the handshake
// and then sends a well-framed but undecodable payload also only drops
// that connection.
func TestServerSurvivesNonJSONPayload(t *testing.T) {
	clock := simclock.Real{}
	core := NewCore(clock, nil)
	srv := NewServer(core, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, _, err := wire.Dial(addr, wire.ProtoV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("definitely not a frame")
	frame := append([]byte{byte(len(payload))}, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); err == nil && n > 0 {
		t.Error("server replied to an undecodable payload")
	}
	_ = conn.Close()
}

// TestServerConcurrentClients: many clients hammering one middlebox; every
// request gets its reply and every command is logged exactly once.
func TestServerConcurrentClients(t *testing.T) {
	clock := simclock.Real{}
	sink := store.NewMemStore()
	core := NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, 1)))
	srv := NewServer(core, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init}); err != nil {
				errs <- err
				return
			}
			var reply wire.Reply
			if err := wc.ReadFrame(&reply); err != nil {
				errs <- err
				return
			}
			for i := 0; i < perClient; i++ {
				req := wire.Request{ID: uint64(i + 2), Op: wire.OpExec, Device: "C9", Name: "MVNG"}
				if err := wc.WriteFrame(req); err != nil {
					errs <- err
					return
				}
				if err := wc.ReadFrame(&reply); err != nil {
					errs <- err
					return
				}
				if reply.ID != req.ID {
					t.Errorf("client %d: reply id %d for request %d", id, reply.ID, req.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := clients * (perClient + 1)
	if got := sink.Len(); got != want {
		t.Errorf("logged %d records, want %d", got, want)
	}
}

// TestCoreStatsUnderConcurrency checks the counters stay consistent.
func TestCoreStatsUnderConcurrency(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	core := NewCore(clock, nil)
	core.Register(c9.New(device.NewEnv(clock, 1)))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				core.Handle(wire.Request{Op: wire.OpPing})
			}
		}()
	}
	wg.Wait()
	if got := core.Snapshot().Pings; got != 400 {
		t.Errorf("pings = %d, want 400", got)
	}
}

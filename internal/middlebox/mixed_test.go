package middlebox

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/wire"
)

// v1Frame encodes v in the retired v1 framing — a 4-byte big-endian length
// then JSON — which is what a pre-binary peer opens its connection with.
func v1Frame(t *testing.T, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// silentClose reports an error unless the server closes conn without
// writing a single byte.
func silentClose(conn net.Conn) error {
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [16]byte
	if n, err := conn.Read(buf[:]); err == nil || n > 0 {
		return fmt.Errorf("server answered %q (err %v), want the connection closed without a reply", buf[:n], err)
	}
	return nil
}

// TestWireMixedVersionFleet runs a fleet of clients against one listener
// concurrently while v1 JSON peers keep arriving. Every v1 peer must be
// refused without a reply, and every v2 client uploads the same DIRECT-mode
// trace set, so the store must end up holding one record per (client,
// upload) — and for each upload index, every client's copy must be
// byte-identical modulo the store-assigned sequence number.
func TestWireMixedVersionFleet(t *testing.T) {
	core, sink, _ := newTestCore(t)
	srv := NewServer(core, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, legacy, uploads = 4, 2, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients+legacy)
	for li := 0; li < legacy; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("v1 peer %d: dial: %w", li, err)
				return
			}
			defer conn.Close()
			if _, err := conn.Write(v1Frame(t, wire.Request{ID: 1, Op: wire.OpPing})); err != nil {
				errs <- fmt.Errorf("v1 peer %d: write: %w", li, err)
				return
			}
			if err := silentClose(conn); err != nil {
				errs <- fmt.Errorf("v1 peer %d: %w", li, err)
			}
		}(li)
	}
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer conn.Close()
			for i := 0; i < uploads; i++ {
				req := wire.Request{
					Op:         wire.OpTrace,
					Device:     "C9",
					Name:       "ARM",
					Args:       []string{fmt.Sprintf("%d", i), "ünïcödé", ""},
					Value:      "ok",
					StartNanos: int64(1000 + i),
					EndNanos:   int64(2000 + i),
					Procedure:  "P3",
					Run:        "mixed-fleet",
				}
				if i%3 == 0 {
					req.Error = "front door crashed"
				}
				if err := wc.WriteFrame(req); err != nil {
					errs <- fmt.Errorf("client %d upload %d: %w", ci, i, err)
					return
				}
				var rep wire.Reply
				if err := wc.ReadFrame(&rep); err != nil {
					errs <- fmt.Errorf("client %d upload %d: read reply: %w", ci, i, err)
					return
				}
				if rep.Error != "" {
					errs <- fmt.Errorf("client %d upload %d: server error %q", ci, i, rep.Error)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	records := sink.All()
	if len(records) != clients*uploads {
		t.Fatalf("store holds %d records, want %d", len(records), clients*uploads)
	}
	// Group by upload index (recoverable from StartNanos) and require every
	// group to be one identical record seen once per client.
	groups := make(map[int64][]store.Record)
	for _, r := range records {
		groups[r.Time.UnixNano()] = append(groups[r.Time.UnixNano()], r)
	}
	if len(groups) != uploads {
		t.Fatalf("%d distinct uploads in store, want %d", len(groups), uploads)
	}
	for nanos, group := range groups {
		if len(group) != clients {
			t.Fatalf("upload at %d has %d copies, want %d", nanos, len(group), clients)
		}
		want := canonical(t, group[0])
		for _, r := range group[1:] {
			if got := canonical(t, r); got != want {
				t.Errorf("upload at %d diverges across clients:\n got %s\nwant %s", nanos, got, want)
			}
		}
	}
}

// canonical renders a record as JSON with the store-assigned Seq zeroed —
// the byte-identity the mixed-fleet guarantee is stated in.
func canonical(t *testing.T, r store.Record) string {
	t.Helper()
	r.Seq = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireMiddleboxPinnedProtocols pins the listener to v2, the only
// protocol: a v2 client is served, and a client still pinned to the v1 JSON
// framing is rejected at the handshake — the connection just dies, and the
// client sees no reply.
func TestWireMiddleboxPinnedProtocols(t *testing.T) {
	t.Run("v2 pin", func(t *testing.T) {
		core, _, _ := newTestCore(t)
		srv := NewServer(core, NetworkProfile{}, 1)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		conn, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
		var rep wire.Reply
		if err := wc.ReadFrame(&rep); err != nil || rep.Value != "pong" {
			t.Fatalf("ping over v2: %+v, %v", rep, err)
		}

		conn2, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn2.Close()
		if _, err := conn2.Write(v1Frame(t, wire.Request{ID: 1, Op: wire.OpPing})); err != nil {
			t.Fatal(err)
		}
		if err := silentClose(conn2); err != nil {
			t.Fatalf("v1 client: %v", err)
		}
	})
}

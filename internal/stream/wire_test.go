package stream_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// v1Frame encodes v in the retired v1 framing — a 4-byte big-endian length
// then JSON — which is what a pre-binary tailer opens its connection with.
func v1Frame(t *testing.T, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// expectSilentClose requires the server to close conn without writing a
// single byte.
func expectSilentClose(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [16]byte
	if n, err := conn.Read(buf[:]); err == nil || n > 0 {
		t.Fatalf("server answered %q (err %v), want the connection closed without a reply", buf[:n], err)
	}
}

// TestWireMixedVersionTail subscribes several tailers to the same listener
// while a v1 JSON tailer tries to join: the v1 peer is refused without a
// reply, and every v2 client sees identical events from one feed.
func TestWireMixedVersionTail(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	clients := make([]*stream.Client, 3)
	for i := range clients {
		c, err := stream.Dial(addr, wire.Subscribe{Name: fmt.Sprintf("tail-%d", i)})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		defer c.Close()
		clients[i] = c
	}
	legacy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, err := legacy.Write(v1Frame(t, wire.Subscribe{Op: wire.OpSubscribe, Name: "legacy"})); err != nil {
		t.Fatal(err)
	}
	expectSilentClose(t, legacy)
	waitForSubscriber(t, broker, len(clients))
	if n := len(broker.Stats()); n != len(clients) {
		t.Fatalf("%d subscribers registered, want %d (the v1 peer must not subscribe)", n, len(clients))
	}

	const events = 16
	go func() {
		for i := 0; i < events; i++ {
			broker.Publish(store.Record{
				Seq: uint64(i), Time: time.Unix(0, int64(1000+i)).UTC(),
				Device: "UR3e", Name: "move_joints",
				Args: []string{"0.5", "ünïcödé"}, Response: "ok", Run: "mixed-tail",
			})
		}
	}()

	// Collect per client, then compare the streams as JSON.
	streams := make([][]string, len(clients))
	for ci, c := range clients {
		for i := 0; i < events; i++ {
			ev, err := c.Recv()
			if err != nil {
				t.Fatalf("client %d event %d: %v", ci, i, err)
			}
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			streams[ci] = append(streams[ci], string(b))
		}
	}
	for ci := 1; ci < len(streams); ci++ {
		for i := range streams[0] {
			if streams[ci][i] != streams[0][i] {
				t.Errorf("event %d diverges between client 0 and client %d:\n %s\n %s",
					i, ci, streams[0][i], streams[ci][i])
			}
		}
	}
}

// TestWireV2BadSubscribeGetsEventError pins the satellite fix: a peer that
// completes the v2 handshake and then sends a malformed subscribe gets a
// precise EventError frame back, not a silent close.
func TestWireV2BadSubscribeGetsEventError(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc, err := wire.Client(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed v2 frame of the wrong type: decodes as garbage for a
	// Subscribe, so the server must answer with the decode error.
	if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	var ev wire.Event
	if err := wc.ReadFrame(&ev); err != nil {
		t.Fatalf("want an EventError frame, read failed: %v", err)
	}
	if ev.Kind != wire.EventError || !strings.Contains(ev.Error, "bad subscribe frame") {
		t.Fatalf("got %+v, want EventError mentioning the bad subscribe", ev)
	}
}

// TestWireV1BadSubscribeStillSilent: a v1 peer never completes the
// handshake, so the server cannot know its frame was meant as a subscribe
// — it closes the connection without a reply, and the next v2 client is
// served normally.
func TestWireV1BadSubscribeStillSilent(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(v1Frame(t, wire.Subscribe{Op: wire.OpSubscribe, Name: "legacy"})); err != nil {
		t.Fatal(err)
	}
	expectSilentClose(t, conn)

	client, err := stream.Dial(addr, wire.Subscribe{Name: "next"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)
	broker.Publish(rec(3, "C9", "MVNG"))
	if ev, err := client.Recv(); err != nil || ev.Record == nil || ev.Record.Seq != 3 {
		t.Fatalf("v2 client after refused v1 peer: recv = %+v, %v", ev, err)
	}
}

// TestWireStreamCloseSeversPreSubscribeConn: connections are tracked from
// the moment they land, so Close cannot be held hostage by a client that
// connected and then went quiet before (or during) negotiation.
func TestWireStreamCloseSeversPreSubscribeConn(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv, addr := startServer(t, broker, nil)

	// Three stalls at different protocol stages: nothing sent, a partial v2
	// preamble, and a full handshake with no subscribe.
	quiet, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	partial, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	if _, err := partial.Write([]byte{'R', 'A'}); err != nil {
		t.Fatal(err)
	}
	shaken, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer shaken.Close()
	if _, err := wire.Client(shaken, nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on pre-subscribe connections")
	}
}

// TestWireStreamDeadConnDuringNegotiation: a client that dies mid-handshake
// must cost the server nothing — the next subscriber is served normally.
func TestWireStreamDeadConnDuringNegotiation(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	dying, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dying.Write([]byte{'R', 'A', 'D'}); err != nil {
		t.Fatal(err)
	}
	_ = dying.Close()

	client, err := stream.Dial(addr, wire.Subscribe{Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)
	broker.Publish(rec(7, "C9", "MVNG"))
	if ev, err := client.Recv(); err != nil || ev.Record == nil || ev.Record.Seq != 7 {
		t.Fatalf("survivor recv = %+v, %v", ev, err)
	}
}

// TestWireV2SnapshotThenFollow runs the full snapshot-then-follow protocol
// over the binary framing, with records that exercise the codec's time and
// args paths end to end through the tracedb.
func TestWireV2SnapshotThenFollow(t *testing.T) {
	db, broker, addr := snapshotFixture(t)
	defer broker.Close()

	client, err := stream.Dial(addr, wire.Subscribe{Snapshot: true, Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for want := uint64(0); want < 5; want++ {
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != wire.EventTrace || ev.Record.Seq != want {
			t.Fatalf("snapshot event %d: %+v", want, ev)
		}
		if len(ev.Record.Args) != 2 || ev.Record.Args[1] != "ünïcödé" {
			t.Fatalf("snapshot record %d args mangled: %+v", want, ev.Record.Args)
		}
	}
	if ev, err := client.Recv(); err != nil || ev.Kind != wire.EventSnapshotEnd {
		t.Fatalf("want snapshot end, got %+v, %v", ev, err)
	}
	if err := db.Append(store.Record{Device: "UR3e", Name: "movej"}); err != nil {
		t.Fatal(err)
	}
	if ev, err := client.Recv(); err != nil || ev.Kind != wire.EventTrace || ev.Record.Seq != 5 {
		t.Fatalf("live event after snapshot: %+v, %v", ev, err)
	}
}

func snapshotFixture(t *testing.T) (db *tracedb.DB, broker *stream.Broker, addr string) {
	t.Helper()
	tdb, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tdb.Close() })
	broker = stream.NewBroker()
	broker.AttachStore(tdb)
	_, addr = startServer(t, broker, tdb)
	for i := 0; i < 5; i++ {
		if err := tdb.Append(store.Record{
			Time: time.Unix(0, int64(1000+i)).UTC(), Device: "C9", Name: "MVNG",
			Args: []string{"x", "ünïcödé"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tdb, broker, addr
}

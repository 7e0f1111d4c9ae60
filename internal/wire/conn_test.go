package wire

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// handshake runs Accept on one end of a pipe and client on the other,
// returning both Conns (or the server error).
func handshake(t *testing.T, client func(net.Conn) (*Conn, error)) (cli, srv *Conn, srvErr error) {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	t.Cleanup(func() { cliConn.Close(); srvConn.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv, srvErr = Accept(srvConn, nil)
	}()
	var err error
	cli, err = client(cliConn)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return")
	}
	return cli, srv, srvErr
}

// acceptErr runs Accept against a peer that writes opening and returns
// Accept's error.
func acceptErr(t *testing.T, opening []byte) error {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	defer srvConn.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := Accept(srvConn, nil)
		errCh <- err
	}()
	go func() { _, _ = cliConn.Write(opening) }()
	select {
	case err := <-errCh:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return")
		return nil
	}
}

func TestWireNegotiateV2UnderAuto(t *testing.T) {
	cli, srv, err := handshake(t, func(c net.Conn) (*Conn, error) { return Client(c, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if cli.Version() != V2 || srv.Version() != V2 || V2.String() != "v2" {
		t.Fatalf("handshake settled on %s/%s, want v2/v2", cli.Version(), srv.Version())
	}
	// A frame flows over the handshaken connection (pipe needs both sides live).
	go func() { _ = cli.WriteFrame(Request{ID: 9, Op: OpPing}) }()
	var req Request
	if err := srv.ReadFrame(&req); err != nil || req.ID != 9 || req.Op != OpPing {
		t.Fatalf("frame after handshake: %+v, %v", req, err)
	}
}

// TestWireNegotiateRequiredV2RejectsV1: a pre-binary peer opens with a JSON
// frame whose 4-byte length header starts 0x00; Accept refuses it before
// decoding anything.
func TestWireNegotiateRequiredV2RejectsV1(t *testing.T) {
	err := acceptErr(t, v1Frame(t, Request{ID: 1, Op: OpPing}))
	if err == nil || !strings.Contains(err.Error(), "bad preamble magic") {
		t.Fatalf("Accept on a v1 JSON frame: err = %v", err)
	}
}

func TestWireNegotiateBadVersionByte(t *testing.T) {
	if err := acceptErr(t, []byte{'R', 'A', 'D', '2', 99}); err == nil ||
		!strings.Contains(err.Error(), "unsupported protocol version 99") {
		t.Fatalf("future version byte: err = %v", err)
	}
	// Magic prefix right, magic tail wrong.
	if err := acceptErr(t, []byte{'R', 'O', 'G', 'U', 'E'}); err == nil ||
		!strings.Contains(err.Error(), "bad preamble magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
}

// TestWireNegotiateDeadConn kills the client at every point inside the
// handshake; Accept must return an error each time, never hang.
func TestWireNegotiateDeadConn(t *testing.T) {
	for _, sent := range []int{0, 1, 3} {
		cliConn, srvConn := net.Pipe()
		errCh := make(chan error, 1)
		go func() {
			_, err := Accept(srvConn, nil)
			errCh <- err
		}()
		if sent > 0 {
			if _, err := cliConn.Write(preamble[:sent]); err != nil {
				t.Fatal(err)
			}
		}
		_ = cliConn.Close()
		select {
		case err := <-errCh:
			if err == nil {
				t.Errorf("client died after %d preamble bytes: Accept returned nil error", sent)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("client died after %d preamble bytes: Accept hung", sent)
		}
		_ = srvConn.Close()
	}
}

// listen serves each accepted connection with serve on a loopback listener
// that lives as long as the test.
func listen(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// echoListener handshakes every connection and answers each request with
// a pong.
func echoListener(t *testing.T) string {
	return listen(t, func(conn net.Conn) {
		wc, err := Accept(conn, nil)
		if err != nil {
			return
		}
		for {
			var req Request
			if err := wc.ReadFrame(&req); err != nil {
				return
			}
			if err := wc.WriteFrame(Reply{ID: req.ID, Value: "pong"}); err != nil {
				return
			}
		}
	})
}

func TestWireDialAutoUpgradesToV2(t *testing.T) {
	conn, wc, err := Dial(echoListener(t), ProtoV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wc.WriteFrame(Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var rep Reply
	if err := wc.ReadFrame(&rep); err != nil || rep.Value != "pong" {
		t.Fatalf("ping reply %+v, %v", rep, err)
	}
}

// TestWireDialRequiredV2AgainstV1OnlyFails dials a pre-binary listener
// stand-in: it reads the preamble as a v1 frame header, finds an absurd
// length, and hangs up without an ack. The dial must fail.
func TestWireDialRequiredV2AgainstV1OnlyFails(t *testing.T) {
	addr := listen(t, func(conn net.Conn) {
		var hdr [4]byte
		_, _ = io.ReadFull(conn, hdr[:])
	})
	conn, _, err := Dial(addr, ProtoV2, nil)
	if err == nil {
		conn.Close()
		t.Fatal("Dial against a listener that never acks succeeded")
	}
}

// TestWireDialRefusesOtherVersions: V2 is the only protocol, so Dial
// refuses any other version before touching the network.
func TestWireDialRefusesOtherVersions(t *testing.T) {
	for _, v := range []Proto{0, 1, 3} {
		if _, _, err := Dial("127.0.0.1:1", v, nil); err == nil || !strings.Contains(err.Error(), "unsupported protocol") {
			t.Errorf("Dial(%s): err = %v, want an unsupported-protocol error", v, err)
		}
	}
}

// TestWireV2ReadFrameEOF: a cleanly closed connection yields bare io.EOF
// from ReadFrame.
func TestWireV2ReadFrameEOF(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	go func() {
		_, _ = Client(cliConn, nil)
		cliConn.Close()
	}()
	wc, err := Accept(srvConn, nil)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := wc.ReadFrame(&req); !errors.Is(err, io.EOF) {
		t.Fatalf("read on closed conn: %v, want io.EOF", err)
	}
}

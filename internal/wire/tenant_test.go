package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
)

// TestWireTenantRoundTrip proves the tenant tag survives the codec and that
// the empty tenant — the value every pre-fleet peer sends — costs zero
// bytes, so a single-tenant peer's byte stream is unchanged.
func TestWireTenantRoundTrip(t *testing.T) {
	req := Request{ID: 7, Op: OpExec, Device: "C9", Name: "GetJointPosition", Tenant: "lab-042"}
	sub := Subscribe{Op: OpSubscribe, Device: "C9", Tenant: "lab-042"}

	t.Run("v2 request", func(t *testing.T) {
		payload, err := appendBinaryFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := decodeBinaryFrame(payload, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	})

	t.Run("v2 subscribe", func(t *testing.T) {
		payload, err := appendBinaryFrame(nil, &sub)
		if err != nil {
			t.Fatal(err)
		}
		var got Subscribe
		if err := decodeBinaryFrame(payload, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sub) {
			t.Fatalf("round trip: got %+v want %+v", got, sub)
		}
	})

	t.Run("empty tenant costs zero bytes", func(t *testing.T) {
		bare := Request{ID: 7, Op: OpExec, Device: "C9", Name: "GetJointPosition"}
		with, _ := appendBinaryFrame(nil, &bare)
		tagged := bare
		tagged.Tenant = ""
		again, _ := appendBinaryFrame(nil, &tagged)
		if !bytes.Equal(with, again) {
			t.Fatal("empty tenant changed the v2 byte stream")
		}
	})
}

// TestWireTenantConnV2 drives the tenant tag through a real handshaken
// connection pair: a peer presenting thousands of distinct tenants has
// every one decoded, in order, until it hangs up.
func TestWireTenantConnV2(t *testing.T) {
	const tenants = 5000
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		cc, err := Client(client, nil)
		if err != nil {
			done <- err
			return
		}
		for i := 0; i < tenants; i++ {
			if err := cc.WriteFrame(&Request{ID: uint64(i), Op: OpExec, Tenant: fmt.Sprintf("lab-%05d", i)}); err != nil {
				done <- err
				return
			}
		}
		done <- client.Close()
	}()

	sc, err := Accept(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		var q Request
		err := sc.ReadFrame(&q)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		if want := fmt.Sprintf("lab-%05d", n); q.Tenant != want {
			t.Fatalf("frame %d: tenant %q, want %q", n, q.Tenant, want)
		}
		n++
	}
	if n != tenants {
		t.Fatalf("decoded %d frames, want %d", n, tenants)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"testing"
	"time"

	"rad"
	"rad/internal/device"
	"rad/internal/wire"
)

// TestMiddleboxFleetMode boots the CLI in -fleet mode and checks that
// tenant-tagged requests reach their own lazily-created labs, untagged
// peers keep working against the default lab, and hostile tenant IDs are
// refused — all over one listener.
func TestMiddleboxFleetMode(t *testing.T) {
	listenReady = make(chan string, 1)
	defer func() { listenReady = nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-trace", "", "-network", "none",
			"-fleet", "-tenants", "8", "-dlq", t.TempDir(),
		}, stop)
	}()

	var addr string
	select {
	case addr = <-listenReady:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}

	// An untagged legacy session lands on the default lab unchanged.
	transport, err := rad.DialMiddlebox(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := rad.NewTracingSession(transport, rad.RealClock{}, rad.TracingConfig{DefaultMode: rad.ModeRemote})
	dev, err := sess.Virtual(rad.DeviceC9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(rad.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()

	// Tenant-tagged binary-protocol requests instantiate and drive their
	// own labs; each tenant must run its own device lifecycle (Init works
	// per lab, proving the C9s are distinct instances).
	tagged, err := rad.DialMiddlebox(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tagged.Close()
	for _, tenant := range []string{"lab-a", "lab-b"} {
		for i, name := range []string{device.Init, "MVNG"} {
			rep, err := tagged.RoundTrip(wire.Request{
				ID: uint64(i + 1), Op: wire.OpExec, Tenant: tenant,
				Device: rad.DeviceC9, Name: name,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", tenant, name, err)
			}
			if rep.Error != "" {
				t.Fatalf("%s %s: server error %q", tenant, name, rep.Error)
			}
		}
	}

	// A path-hostile tenant ID is refused with an error reply, not a lab.
	rep, err := tagged.RoundTrip(wire.Request{
		ID: 9, Op: wire.OpExec, Tenant: "../escape", Device: rad.DeviceC9, Name: "MVNG",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Error == "" {
		t.Fatal("hostile tenant ID accepted")
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}
}

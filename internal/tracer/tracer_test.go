package tracer

import (
	"errors"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/tecan"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
)

// newRig builds a virtual-clock middlebox core with a C9 and Tecan attached,
// plus an in-process transport.
func newRig(t *testing.T) (*middlebox.Core, *store.MemStore, *simclock.Virtual, *c9.C9, *tecan.Tecan) {
	t.Helper()
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	sink := store.NewMemStore()
	core := middlebox.NewCore(clock, sink)
	arm := c9.New(device.NewEnv(clock, 1))
	pump := tecan.New(device.NewEnv(clock, 2))
	core.Register(arm)
	core.Register(pump)
	return core, sink, clock, arm, pump
}

func TestRemoteModeExecutesViaMiddlebox(t *testing.T) {
	core, sink, clock, _, _ := newRig(t)
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote, Procedure: "P1", Run: "run-13"})
	defer sess.Close()

	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	v, err := dev.Exec(device.Command{Name: "MVNG"})
	if err != nil {
		t.Fatal(err)
	}
	if v != "0 0 0 0" {
		t.Errorf("MVNG = %q", v)
	}
	recs := sink.All()
	if len(recs) != 2 {
		t.Fatalf("logged %d records", len(recs))
	}
	if recs[1].Mode != "REMOTE" || recs[1].Procedure != "P1" || recs[1].Run != "run-13" {
		t.Errorf("record = %+v", recs[1])
	}
}

func TestRemoteModeSurfacesDeviceError(t *testing.T) {
	core, _, clock, arm, _ := newRig(t)
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote})
	defer sess.Close()

	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	arm.InjectFault("collision")
	_, err = dev.Exec(device.Command{Name: "ARM", Args: []string{"1", "2", "3"}})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestDirectModeExecutesLocallyAndUploads(t *testing.T) {
	core, sink, clock, _, _ := newRig(t)
	// In DIRECT mode the lab computer has its own device connection.
	localArm := c9.New(device.NewEnv(clock, 9))
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{
		DefaultMode: ModeDirect, Procedure: "Joystick", Run: "run-0",
	})
	defer sess.Close()
	sess.AttachLocal(localArm)

	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: "ARM", Args: []string{"5", "5", "5"}}); err != nil {
		t.Fatal(err)
	}
	sess.Flush()
	recs := sink.All()
	if len(recs) != 2 {
		t.Fatalf("logged %d records", len(recs))
	}
	if recs[1].Mode != "DIRECT" {
		t.Errorf("mode = %q", recs[1].Mode)
	}
	if recs[1].Latency() <= 0 {
		t.Errorf("direct trace latency = %v", recs[1].Latency())
	}
}

func TestDirectModeErrorTracedAsException(t *testing.T) {
	core, sink, clock, _, _ := newRig(t)
	localArm := c9.New(device.NewEnv(clock, 9))
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeDirect})
	defer sess.Close()
	sess.AttachLocal(localArm)

	dev, _ := sess.Virtual(device.C9)
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	localArm.InjectFault("crash")
	_, err := dev.Exec(device.Command{Name: "HOME"})
	var fe *device.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want local FaultError, got %v", err)
	}
	sess.Flush()
	recs := sink.All()
	last := recs[len(recs)-1]
	if last.Exception == "" {
		t.Error("fault not traced as exception")
	}
}

func TestHybridConfiguration(t *testing.T) {
	core, sink, clock, _, _ := newRig(t)
	localPump := tecan.New(device.NewEnv(clock, 9))
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{
		DefaultMode: ModeRemote,
		Modes:       map[string]Mode{device.Tecan: ModeDirect},
	})
	defer sess.Close()
	sess.AttachLocal(localPump)

	if got := sess.ModeFor(device.C9); got != ModeRemote {
		t.Errorf("C9 mode = %v", got)
	}
	if got := sess.ModeFor(device.Tecan); got != ModeDirect {
		t.Errorf("Tecan mode = %v", got)
	}

	armDev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	pumpDev, err := sess.Virtual(device.Tecan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := armDev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	if _, err := pumpDev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	sess.Flush()
	recs := sink.All()
	if len(recs) != 2 {
		t.Fatalf("logged %d records", len(recs))
	}
	modes := map[string]string{}
	for _, r := range recs {
		modes[r.Device] = r.Mode
	}
	if modes[device.C9] != "REMOTE" || modes[device.Tecan] != "DIRECT" {
		t.Errorf("modes = %v", modes)
	}
}

func TestVirtualRequiresLocalAttachmentInDirectMode(t *testing.T) {
	core, _, clock, _, _ := newRig(t)
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeDirect})
	defer sess.Close()
	if _, err := sess.Virtual(device.C9); err == nil {
		t.Error("Virtual should fail without a local attachment in DIRECT mode")
	}
}

func TestAsyncTraceUploadFlushes(t *testing.T) {
	core, sink, clock, _, _ := newRig(t)
	localArm := c9.New(device.NewEnv(clock, 9))
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeDirect}) // async
	defer sess.Close()
	sess.AttachLocal(localArm)

	dev, _ := sess.Virtual(device.C9)
	for i := 0; i < 20; i++ {
		if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
			t.Fatal(err)
		}
	}
	sess.Flush()
	if got := sink.Len(); got != 20 {
		t.Errorf("after flush, sink has %d records, want 20", got)
	}
	if sess.DroppedTraces() != 0 {
		t.Errorf("dropped = %d", sess.DroppedTraces())
	}
}

func TestSetLabelsMidSession(t *testing.T) {
	core, sink, clock, _, _ := newRig(t)
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote})
	defer sess.Close()

	dev, _ := sess.Virtual(device.C9)
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	sess.SetLabels("P2", "run-17")
	if _, err := dev.Exec(device.Command{Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	recs := sink.All()
	if recs[0].Procedure != store.UnknownProcedure {
		t.Errorf("pre-label procedure = %q", recs[0].Procedure)
	}
	if recs[1].Procedure != "P2" || recs[1].Run != "run-17" {
		t.Errorf("post-label record = %+v", recs[1])
	}
}

func TestSessionClosedRejectsExec(t *testing.T) {
	core, _, clock, _, _ := newRig(t)
	transport := NewLocalTransport(core, clock, middlebox.NetworkProfile{}, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote})
	dev, _ := sess.Virtual(device.C9)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err == nil {
		t.Error("exec after close should fail")
	}
	// Close is idempotent.
	if err := sess.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestLocalTransportChargesNetworkToClock(t *testing.T) {
	core, _, clock, _, _ := newRig(t)
	profile := middlebox.NetworkProfile{OneWayDelay: 1 * time.Millisecond}
	transport := NewLocalTransport(core, clock, profile, 1)
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote})
	defer sess.Close()

	dev, _ := sess.Virtual(device.C9)
	before := clock.Now()
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(before)
	// 2 ms network + 2-5 ms device processing.
	if elapsed < 4*time.Millisecond {
		t.Errorf("elapsed %v, want >= 4ms (network + device)", elapsed)
	}
}

func TestModeString(t *testing.T) {
	if ModeDirect.String() != "DIRECT" || ModeRemote.String() != "REMOTE" {
		t.Error("mode strings wrong")
	}
	if Mode(0).String() == "" {
		t.Error("invalid mode should still stringify")
	}
}

// End-to-end over real TCP: session → server → device → trace sink.
func TestEndToEndOverTCP(t *testing.T) {
	clock := simclock.Real{}
	sink := store.NewMemStore()
	core := middlebox.NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, 1)))
	srv := middlebox.NewServer(core, middlebox.NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	transport, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(transport, clock, Config{DefaultMode: ModeRemote, Procedure: "Joystick", Run: "run-1"})
	defer sess.Close()

	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := dev.Exec(device.Command{Name: "ARM", Args: []string{"1", "2", "3"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.Len(); got != 11 {
		t.Errorf("sink has %d records, want 11", got)
	}
	for _, r := range sink.All() {
		if r.Run != "run-1" {
			t.Fatalf("record run = %q", r.Run)
		}
	}
}

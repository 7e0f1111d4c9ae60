package middlebox

import (
	"strings"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/wire"
)

func newTestCore(t *testing.T) (*Core, *store.MemStore, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	sink := store.NewMemStore()
	core := NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, 1)))
	return core, sink, clock
}

func TestCorePing(t *testing.T) {
	core, _, _ := newTestCore(t)
	reply := core.Handle(wire.Request{ID: 5, Op: wire.OpPing})
	if reply.ID != 5 || reply.Value != "pong" || reply.Error != "" {
		t.Errorf("ping reply = %+v", reply)
	}
	if core.Snapshot().Pings != 1 {
		t.Errorf("pings = %d", core.Snapshot().Pings)
	}
}

func TestCoreExecLogsRecord(t *testing.T) {
	core, sink, _ := newTestCore(t)
	init := core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init})
	if init.Error != "" {
		t.Fatalf("init error: %s", init.Error)
	}
	reply := core.Handle(wire.Request{
		ID: 2, Op: wire.OpExec, Device: "C9", Name: "ARM",
		Args: []string{"10", "20", "30"}, Procedure: "Joystick", Run: "run-3",
	})
	if reply.Error != "" || reply.Value != "ok" {
		t.Fatalf("exec reply = %+v", reply)
	}
	recs := sink.All()
	if len(recs) != 2 {
		t.Fatalf("logged %d records, want 2", len(recs))
	}
	r := recs[1]
	if r.Device != "C9" || r.Name != "ARM" || r.Mode != "REMOTE" {
		t.Errorf("record = %+v", r)
	}
	if r.Procedure != "Joystick" || r.Run != "run-3" {
		t.Errorf("labels = %q/%q", r.Procedure, r.Run)
	}
	if r.Latency() <= 0 {
		t.Errorf("latency = %v, want > 0 (device processing time)", r.Latency())
	}
}

func TestCoreExecUnknownDevice(t *testing.T) {
	core, sink, _ := newTestCore(t)
	reply := core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "Toaster", Name: "pop"})
	if reply.Error == "" || !strings.Contains(reply.Error, "not registered") {
		t.Errorf("reply = %+v", reply)
	}
	if sink.Len() != 0 {
		t.Error("unknown-device request should not be logged as a trace")
	}
	if core.Snapshot().Errors != 1 {
		t.Errorf("errors = %d", core.Snapshot().Errors)
	}
}

func TestCoreExecDeviceErrorLoggedAsException(t *testing.T) {
	core, sink, _ := newTestCore(t)
	core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init})
	reply := core.Handle(wire.Request{ID: 2, Op: wire.OpExec, Device: "C9", Name: "ARM", Args: []string{"bogus", "1", "2"}})
	if reply.Error == "" {
		t.Fatal("want error for bad args")
	}
	recs := sink.All()
	if len(recs) != 2 || recs[1].Exception == "" {
		t.Errorf("device error not recorded as exception: %+v", recs[1])
	}
}

func TestCoreTraceUpload(t *testing.T) {
	core, sink, _ := newTestCore(t)
	start := time.Date(2021, 10, 2, 14, 0, 0, 0, time.UTC)
	reply := core.Handle(wire.Request{
		ID: 9, Op: wire.OpTrace, Device: "UR3e", Name: "move_joints",
		Value:      "ok",
		StartNanos: start.UnixNano(), EndNanos: start.Add(2 * time.Second).UnixNano(),
	})
	if reply.Error != "" {
		t.Fatalf("trace reply = %+v", reply)
	}
	recs := sink.All()
	if len(recs) != 1 {
		t.Fatalf("logged %d records", len(recs))
	}
	r := recs[0]
	if r.Mode != "DIRECT" {
		t.Errorf("mode = %q", r.Mode)
	}
	if r.Procedure != store.UnknownProcedure {
		t.Errorf("unsupervised trace labelled %q, want %q", r.Procedure, store.UnknownProcedure)
	}
	if r.Latency() != 2*time.Second {
		t.Errorf("latency = %v", r.Latency())
	}
}

func TestCoreUnknownOp(t *testing.T) {
	core, _, _ := newTestCore(t)
	reply := core.Handle(wire.Request{ID: 1, Op: "teleport"})
	if reply.Error == "" {
		t.Error("want error for unknown op")
	}
}

func TestCoreNilSink(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	core := NewCore(clock, nil)
	core.Register(c9.New(device.NewEnv(clock, 1)))
	reply := core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init})
	if reply.Error != "" {
		t.Errorf("exec with nil sink: %+v", reply)
	}
}

func TestServerServesOverTCP(t *testing.T) {
	core, sink, _ := newTestCore(t)
	srv := NewServer(core, NetworkProfile{}, 1)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	conn, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(req wire.Request) wire.Reply {
		t.Helper()
		if err := wc.WriteFrame(req); err != nil {
			t.Fatal(err)
		}
		var reply wire.Reply
		if err := wc.ReadFrame(&reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}

	if r := send(wire.Request{ID: 1, Op: wire.OpPing}); r.Value != "pong" {
		t.Errorf("ping = %+v", r)
	}
	if r := send(wire.Request{ID: 2, Op: wire.OpExec, Device: "C9", Name: device.Init}); r.Error != "" {
		t.Errorf("init = %+v", r)
	}
	if r := send(wire.Request{ID: 3, Op: wire.OpExec, Device: "C9", Name: "MVNG"}); r.Value != "0 0 0 0" {
		t.Errorf("MVNG = %+v", r)
	}
	if sink.Len() != 2 {
		t.Errorf("server logged %d records, want 2", sink.Len())
	}
}

func TestServerAppliesNetworkDelay(t *testing.T) {
	core, _, _ := newTestCore(t)
	profile := NetworkProfile{OneWayDelay: 10 * time.Millisecond}
	srv := NewServer(core, profile, 1)
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

	start := time.Now()
	if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	var reply wire.Reply
	if err := wc.ReadFrame(&reply); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 20*time.Millisecond {
		t.Errorf("rtt = %v, want >= 20ms with 10ms one-way delay", rtt)
	}
}

func TestServerCloseIdempotentAndRejectsLateStart(t *testing.T) {
	core, _, _ := newTestCore(t)
	srv := NewServer(core, NetworkProfile{}, 1)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("start after close should fail")
	}
}

func TestNetworkProfilesShape(t *testing.T) {
	lan, cloud := LANProfile(), CloudProfile()
	if lan.OneWayDelay >= cloud.OneWayDelay {
		t.Error("LAN delay should be far below cloud delay")
	}
	if cloud.OneWayDelay < 20*time.Millisecond {
		t.Errorf("cloud one-way %v too small for ~60ms RTT", cloud.OneWayDelay)
	}
}

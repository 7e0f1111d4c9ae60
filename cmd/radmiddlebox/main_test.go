package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rad"
	"rad/internal/device"
)

// TestMiddleboxServesAndFlushes boots the CLI middlebox, drives a client
// against it, stops it, and checks the trace file was flushed.
func TestMiddleboxServesAndFlushes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	csvPath := filepath.Join(dir, "trace.csv")
	storeDir := filepath.Join(dir, "tracedb")

	listenReady = make(chan string, 1)
	defer func() { listenReady = nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-trace", tracePath, "-csv", csvPath,
			"-store", storeDir, "-network", "none",
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
	if _, err := dev.Exec(rad.Command{Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}

	// Both trace files carry the two commands.
	jf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	recs, err := rad.ReadTraceJSONL(jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("jsonl has %d records, want 2", len(recs))
	}
	cf, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fromCSV, err := rad.ReadTraceCSV(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != 2 {
		t.Errorf("csv has %d records, want 2", len(fromCSV))
	}

	// The persistent store survives the shutdown and answers the same scan.
	db, err := rad.OpenTraceDB(storeDir, rad.TraceDBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	persisted, err := db.Collect(rad.TraceQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 2 {
		t.Errorf("tracedb has %d records, want 2", len(persisted))
	}
	for i, r := range persisted {
		if r.Device != rad.DeviceC9 || r.Seq != uint64(i) {
			t.Errorf("persisted record %d unexpected: %+v", i, r)
		}
	}
}

// TestMiddleboxTraceLogSeqAcrossRestart runs the middlebox twice on one
// -store with a -trace log: the second run's JSONL must number its records
// as the store does (continuing after the first run), not from 0.
func TestMiddleboxTraceLogSeqAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	names := []string{device.Init, "MVNG", "MVNG"}
	for runNo := 0; runNo < 2; runNo++ {
		tracePath := filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", runNo))
		listenReady = make(chan string, 1)
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- run([]string{
				"-listen", "127.0.0.1:0", "-trace", tracePath,
				"-store", storeDir, "-network", "none",
			}, stop)
		}()
		var addr string
		select {
		case addr = <-listenReady:
		case err := <-done:
			t.Fatalf("run %d exited early: %v", runNo, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d never came up", runNo)
		}
		transport, err := rad.DialMiddlebox(addr)
		if err != nil {
			t.Fatal(err)
		}
		sess := rad.NewTracingSession(transport, rad.RealClock{}, rad.TracingConfig{DefaultMode: rad.ModeRemote})
		dev, err := sess.Virtual(rad.DeviceC9)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if _, err := dev.Exec(rad.Command{Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		_ = sess.Close()
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d shutdown: %v", runNo, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d never shut down", runNo)
		}
		listenReady = nil

		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		logged, err := rad.ReadTraceJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(logged) != len(names) {
			t.Fatalf("run %d: jsonl has %d records, want %d", runNo, len(logged), len(names))
		}
		for i, r := range logged {
			if want := uint64(runNo*len(names) + i); r.Seq != want {
				t.Errorf("run %d: jsonl record %d has seq %d, want %d (the store's)", runNo, i, r.Seq, want)
			}
		}
	}
}

// TestMiddleboxStreamsLive boots the CLI with -stream, tails the listener
// while a client drives commands, and checks the watcher sees every record
// with the store's sequence numbers.
func TestMiddleboxStreamsLive(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")

	listenReady = make(chan string, 1)
	streamReady = make(chan string, 1)
	defer func() { listenReady, streamReady = nil, nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-stream", "127.0.0.1:0",
			"-store", storeDir, "-trace", "", "-network", "none",
		}, stop)
	}()

	var addr, streamAddr string
	for i := 0; i < 2; i++ {
		select {
		case addr = <-listenReady:
		case streamAddr = <-streamReady:
		case err := <-done:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never came up")
		}
	}

	watcher, err := rad.DialStream(streamAddr, rad.StreamSubscribe{
		Name: "test-watcher", Policy: rad.StreamPolicyBlock, Buffer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	transport, err := rad.DialMiddlebox(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := rad.NewTracingSession(transport, rad.RealClock{}, rad.TracingConfig{DefaultMode: rad.ModeRemote})
	dev, err := sess.Virtual(rad.DeviceC9)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{device.Init, "MVNG", "MVNG"} {
		if _, err := dev.Exec(rad.Command{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Close()

	// The watcher receives the three commands with tracedb's seq numbering.
	for want := uint64(0); want < 3; want++ {
		ev, err := watcher.Recv()
		if err != nil {
			t.Fatalf("stream recv %d: %v", want, err)
		}
		if ev.Kind != rad.StreamEventTrace {
			t.Fatalf("event %d kind %q", want, ev.Kind)
		}
		if ev.Record.Seq != want || ev.Record.Device != rad.DeviceC9 {
			t.Errorf("event %d: seq %d device %s", want, ev.Record.Seq, ev.Record.Device)
		}
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

func TestMiddleboxRejectsBadNetwork(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-network", "carrier-pigeon", "-trace", ""}, stop); err == nil {
		t.Error("bad network profile accepted")
	}
}

// TestMiddleboxDLQFailoverAcrossRestarts poisons the trace sinks with
// -fault-profile none,sink=1 so every append fails and spills to the
// dead-letter queue, then restarts the middlebox healthy against the same
// -store and -dlq and checks the spilled records were folded back in: the
// lab loses nothing across a sink outage plus a restart.
func TestMiddleboxDLQFailoverAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	dlqDir := filepath.Join(dir, "dlq")

	boot := func(profile string) (stop chan struct{}, done chan error, addr string) {
		t.Helper()
		listenReady = make(chan string, 1)
		stop = make(chan struct{})
		done = make(chan error, 1)
		go func() {
			done <- run([]string{
				"-listen", "127.0.0.1:0", "-trace", "", "-network", "none",
				"-store", storeDir, "-dlq", dlqDir,
				"-fault-profile", profile,
				"-exec-timeout", "30s", "-retries", "2", "-breaker-threshold", "3",
			}, stop)
		}()
		select {
		case addr = <-listenReady:
		case err := <-done:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never came up")
		}
		return stop, done, addr
	}
	shutdown := func(stop chan struct{}, done chan error) {
		t.Helper()
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
	drive := func(addr string, names ...string) {
		t.Helper()
		transport, err := rad.DialMiddlebox(addr)
		if err != nil {
			t.Fatal(err)
		}
		sess := rad.NewTracingSession(transport, rad.RealClock{}, rad.TracingConfig{DefaultMode: rad.ModeRemote})
		dev, err := sess.Virtual(rad.DeviceC9)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if _, err := dev.Exec(rad.Command{Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		_ = sess.Close()
	}

	// Run 1: every sink append fails; both commands must dead-letter.
	stop, done, addr := boot("none,sink=1")
	drive(addr, device.Init, "MVNG")
	shutdown(stop, done)

	dlq, err := rad.OpenDLQ(dlqDir)
	if err != nil {
		t.Fatal(err)
	}
	if files, err := dlq.Pending(); err != nil || len(files) != 2 {
		t.Fatalf("dlq pending = %v, %v; want 2 spill files", files, err)
	}

	// Run 2: healthy sinks; startup re-ingest folds the dead letters in,
	// and a fresh command lands directly.
	stop, done, addr = boot("")
	drive(addr, device.Init, "MVNG")
	shutdown(stop, done)

	if files, err := dlq.Pending(); err != nil || len(files) != 0 {
		t.Fatalf("dlq pending after restart = %v, %v; want none", files, err)
	}
	db, err := rad.OpenTraceDB(storeDir, rad.TraceDBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs, err := db.Collect(rad.TraceQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered store has %d records, want 4 (2 re-ingested + 2 live)", len(recs))
	}
	for _, r := range recs {
		if r.Device != rad.DeviceC9 {
			t.Errorf("unexpected record: %+v", r)
		}
	}
}

package middlebox

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/fault"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/wire"
)

// findChild returns the first child span with the given name, depth 1 only.
func findChild(tr *span.Tree, name string) *span.Tree {
	for _, c := range tr.Children {
		if c.Span.Name == name {
			return c
		}
	}
	return nil
}

// hasChildren reports whether tr has a direct child of every given name.
func hasChildren(tr *span.Tree, names []string) bool {
	for _, name := range names {
		if findChild(tr, name) == nil {
			return false
		}
	}
	return true
}

func attr(s span.Span, key string) string {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestSpanExecRetryAttemptTree drives a hardened exec through two injected
// infrastructure failures and asserts the resulting trace tree: the
// middlebox.exec root adopts the remote trace context, each attempt on the
// retry path is its own child span annotated with attempt number, breaker
// state, and fault class, and the store append hangs off the root.
func TestSpanExecRetryAttemptTree(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	core := NewCore(clock, store.NewMemStore())
	dev := &flakyNTimes{name: "C9", n: 2, answer: "0"}
	core.Register(dev)
	core.SetExecPolicy(ExecPolicy{Retries: 3, RetrySeed: 11, Breaker: fault.BreakerConfig{Threshold: 5, Cooldown: time.Minute, Probes: 1}})
	rec := span.NewRecorder(span.Config{Seed: 3})
	core.SetSpans(rec, "lab-a")

	reply := core.Handle(wire.Request{
		ID: 1, Op: wire.OpExec, Device: "C9", Name: "MVNG",
		TraceID: 0x77, SpanID: 0x88,
	})
	if reply.Error != "" {
		t.Fatalf("exec failed: %s", reply.Error)
	}

	roots := rec.Roots(span.Filter{})
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1: %+v", len(roots), roots)
	}
	root := roots[0]
	if root.Span.Name != "middlebox.exec" || root.Span.TraceID != 0x77 || root.Span.ParentID != 0x88 {
		t.Fatalf("root = %+v, want middlebox.exec under remote context 77/88", root.Span)
	}
	if root.Span.Tenant != "lab-a" {
		t.Fatalf("root tenant = %q, want lab-a", root.Span.Tenant)
	}
	if root.Span.Outcome != "" {
		t.Fatalf("successful exec root outcome = %q, want ok (empty)", root.Span.Outcome)
	}

	var attempts []*span.Tree
	for _, c := range root.Children {
		if c.Span.Name == "exec.attempt" {
			attempts = append(attempts, c)
		}
	}
	if len(attempts) != 3 {
		t.Fatalf("got %d exec.attempt children, want 3 (2 failures + success)", len(attempts))
	}
	for i, a := range attempts {
		wantOutcome := span.OutcomeError
		if i == 2 {
			wantOutcome = "" // the healed attempt
		}
		if a.Span.Outcome != wantOutcome {
			t.Errorf("attempt %d outcome = %q, want %q", i+1, a.Span.Outcome, wantOutcome)
		}
		if got := attr(a.Span, "attempt"); got == "" {
			t.Errorf("attempt %d missing attempt attr", i+1)
		}
		if got := attr(a.Span, "breaker"); got == "" {
			t.Errorf("attempt %d missing breaker attr", i+1)
		}
	}
	if got := attr(attempts[0].Span, "fault"); got != "connection reset" {
		t.Errorf("failed attempt fault attr = %q, want %q", got, "connection reset")
	}
	if findChild(root, "store.append") == nil {
		t.Fatalf("no store.append child under the exec root: %+v", root.Children)
	}
}

// TestSpanShedExecOutcome opens a device's breaker and asserts the shed
// request's zero-width root span carries outcome "shed" with the breaker
// attr, answering /debug/spans?outcome=shed precisely.
func TestSpanShedExecOutcome(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	core := NewCore(clock, store.NewMemStore())
	core.Register(&flakyNTimes{name: "C9", n: 1 << 30})
	core.SetExecPolicy(ExecPolicy{Breaker: fault.BreakerConfig{Threshold: 1, Cooldown: time.Hour, Probes: 1}})
	rec := span.NewRecorder(span.Config{Seed: 3})
	core.SetSpans(rec, "")

	// First exec fails and trips the breaker; the second is shed.
	core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: "MVNG", TraceID: 1, SpanID: 2})
	core.Handle(wire.Request{ID: 2, Op: wire.OpExec, Device: "C9", Name: "MVNG", TraceID: 3, SpanID: 4})

	shed := rec.Roots(span.Filter{Outcome: span.OutcomeShed})
	if len(shed) != 1 {
		t.Fatalf("got %d shed roots, want 1", len(shed))
	}
	s := shed[0].Span
	if s.TraceID != 3 || attr(s, "breaker") != "open" {
		t.Fatalf("shed span = %+v, want trace 3 with breaker=open", s)
	}
	if s.Duration() != 0 {
		t.Errorf("shed span duration = %v, want 0 (no device contact)", s.Duration())
	}
}

// TestSpanServerWireTree serves a traced exec over real TCP (v2 binary,
// remote trace context on the frame) and asserts the server-side tree:
// server.request root parented by the client's span, with wire.decode,
// wire.encode, and middlebox.exec children — decode/encode bracketed
// codec-only, so they are far shorter than the request.
func TestSpanServerWireTree(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	core := NewCore(clock, store.NewMemStore())
	core.Register(c9.New(device.NewEnv(clock, 1)))
	rec := span.NewRecorder(span.Config{Seed: 9})
	core.SetSpans(rec, "")

	srv := NewServer(core, NetworkProfile{}, 1)
	srv.SetSpans(rec)
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
	req := wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init,
		TraceID: 0xabc, SpanID: 0xdef}
	// Let the server sit in its read first, so a decode span that included
	// the socket wait would start before the frame was sent.
	time.Sleep(20 * time.Millisecond)
	sent := time.Now()
	if err := wc.WriteFrame(req); err != nil {
		t.Fatal(err)
	}
	var rep wire.Reply
	if err := wc.ReadFrame(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Error != "" {
		t.Fatalf("exec error: %s", rep.Error)
	}

	// The server records server.request (and wire.encode) after the reply
	// is written, so the client can read the ring first: poll briefly for
	// the root and its three children.
	children := []string{"wire.decode", "wire.encode", "middlebox.exec"}
	var roots []*span.Tree
	for deadline := time.Now().Add(5 * time.Second); ; {
		roots = rec.Roots(span.Filter{})
		if len(roots) == 1 && roots[0].Span.Name == "server.request" && hasChildren(roots[0], children) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d roots, want 1 server.request with %v children", len(roots), children)
		}
		time.Sleep(time.Millisecond)
	}
	root := roots[0]
	if root.Span.TraceID != 0xabc || root.Span.ParentID != 0xdef {
		t.Fatalf("root = %+v, want server.request under client context abc/def", root.Span)
	}
	for _, name := range children {
		if c := findChild(root, name); c.Span.TraceID != 0xabc {
			t.Errorf("%s child on trace %x, want abc", name, c.Span.TraceID)
		}
	}
	// Codec-only capture: the decode span must not include the socket wait
	// (the time before the frame arrived), so it cannot start before the
	// client sent the frame. Comparing its length with the request's would
	// not do: a decode preempted on a busy host can outlast the request.
	dec := findChild(root, "wire.decode").Span
	if dec.Start.Before(sent) {
		t.Errorf("decode started %v before the frame was sent — socket wait leaked in",
			sent.Sub(dec.Start))
	}
	// The exec child of the server root is the core's span, proving the
	// server rewrote the request's context before handing it down.
	exec := findChild(root, "middlebox.exec").Span
	if exec.ParentID != root.Span.SpanID {
		t.Errorf("exec parent = %x, want the server root %x", exec.ParentID, root.Span.SpanID)
	}
}

// TestSpanUntracedRequestsRecordNothing pins the zero-cost contract: with
// no recorder attached, traced fields stay zero and nothing is buffered;
// with a recorder but an untraced (v1-style) request, the server still
// roots a fresh trace — zero-value trace context is "no context", never
// "trace zero".
func TestSpanUntracedRequestsRecordNothing(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	sink := store.NewMemStore()
	core := NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, 1)))

	// No recorder: nothing recorded, record carries no trace id.
	if r := rexec(core, 1, "C9", device.Init); r.Error != "" {
		t.Fatalf("init: %s", r.Error)
	}
	if recs := sink.All(); recs[len(recs)-1].TraceID != 0 {
		t.Fatal("untraced record got a trace id")
	}

	// Recorder attached, request without remote context: a fresh trace.
	rec := span.NewRecorder(span.Config{Seed: 5})
	core.SetSpans(rec, "")
	if r := rexec(core, 2, "C9", "MVNG"); r.Error != "" {
		t.Fatalf("exec: %s", r.Error)
	}
	roots := rec.Roots(span.Filter{})
	if len(roots) != 1 || roots[0].Span.ParentID != 0 {
		t.Fatalf("fresh trace not rooted: %+v", roots)
	}
	if recs := sink.All(); recs[len(recs)-1].TraceID == 0 {
		t.Fatal("traced record lost its trace id")
	}
}

package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// Server exposes a broker's live feed over TCP: one Subscribe frame in, a
// stream of Event frames out (the wire-protocol tail of wire/stream.go).
// Each connection gets its own broker subscription, so the overflow policy
// and drop accounting are per-tailer; a stalled client under drop-oldest
// costs the middlebox nothing but that client's own ring.
//
// Like the middlebox listener, the tail listener requires the wire
// preamble on every connection and drops any other opening without a
// reply.
type Server struct {
	broker   *Broker
	db       *tracedb.DB // snapshot source; nil disables snapshot-then-follow
	wireM    *wire.Metrics
	spans    *span.Recorder
	resolver TenantResolver // nil: single-tenant listener
	hb       time.Duration  // heartbeat interval; zero: no heartbeats
	ln       wire.Listener
}

// maxSubscriberBuffer caps a client-requested ring so one tail cannot pin
// unbounded memory on the middlebox.
const maxSubscriberBuffer = 1 << 16

// NewServer wraps broker; db (which may be nil) serves Subscribe.Snapshot
// replays.
func NewServer(broker *Broker, db *tracedb.DB) *Server {
	return &Server{broker: broker, db: db}
}

// Observe registers wire metrics in reg (shared with any other listener
// observing the same registry). Call before Start.
func (s *Server) Observe(reg *obs.Registry) { s.wireM = wire.NewMetrics(reg) }

// SetSpans attaches a span flight recorder: every traced record delivered
// to a tailer gets a "stream.deliver" child span under the record's exec
// span, closing the trace tree's last hop. Call before Start.
func (s *Server) SetSpans(r *span.Recorder) { s.spans = r }

// Draining reports whether Drain (or Close) has begun — the stream
// listener's contribution to a drain-aware /healthz.
func (s *Server) Draining() bool { return s.ln.Draining() }

// TenantResolver maps a tenant-tagged Subscribe frame to that tenant's
// broker and snapshot store (db may be nil: snapshot-then-follow disabled
// for that tenant). Returning an error rejects the subscription with a
// precise EventError instead of silently serving the wrong lab's feed.
type TenantResolver func(tenant string) (*Broker, *tracedb.DB, error)

// SetTenantResolver makes the tail listener fleet-aware: subscriptions
// carrying a tenant ID are routed through r to their own lab's broker,
// while untagged subscriptions keep flowing to the server's default
// broker — a pre-fleet tailer needs no change. Call before Start.
func (s *Server) SetTenantResolver(r TenantResolver) { s.resolver = r }

// SetHeartbeat enables liveness probing of tail connections: every
// interval the server pings, and a connection that fails to pong within
// twice the interval is reaped — its subscriber detached, its metrics
// unregistered, its goroutines collected — instead of holding a slot until
// the next write discovers the corpse. The same deadline bounds the
// handshake and the Subscribe frame, so a peer that connects and stalls
// before subscribing is reaped too. With heartbeats off (the default) a
// connection is watched passively instead: any read completing means the
// peer is gone. Call before Start.
func (s *Server) SetHeartbeat(interval time.Duration) { s.hb = interval }

// deadline is how long a read may block under the heartbeat regime: the
// interval plus an equal grace for the pong. Zero with heartbeats off.
func (s *Server) deadline() time.Duration { return 2 * s.hb }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background,
// returning the bound address.
func (s *Server) Start(addr string) (string, error) { return s.ln.Start(addr, s.serveConn) }

func (s *Server) serveConn(conn net.Conn) {
	// Negotiation is bounded by the heartbeat deadline: a peer that stalls
	// before its Subscribe frame is reaped like one that misses a pong.
	if !s.ln.Arm(conn, s.deadline()) {
		return
	}
	wc, err := wire.Accept(conn, s.wireM)
	if err != nil {
		return // dead, stalled or protocol-confused peer: nothing to tell anyone
	}
	var req wire.Subscribe
	if err := wc.ReadFrame(&req); err != nil {
		if !connFailed(err) {
			// The peer completed the handshake, so it can decode an error
			// frame: report the malformed subscribe precisely instead of
			// closing silently.
			_ = wc.WriteFrame(wire.Event{Kind: wire.EventError,
				Error: fmt.Sprintf("stream: bad subscribe frame: %v", err)})
		}
		return
	}
	if !s.ln.Arm(conn, 0) { // negotiated: the supervisor owns reads from here
		return
	}
	if err := req.Validate(); err != nil {
		_ = wc.WriteFrame(wire.Event{Kind: wire.EventError, Error: err.Error()})
		return
	}
	broker, db := s.broker, s.db
	if req.Tenant != "" {
		if s.resolver == nil {
			_ = wc.WriteFrame(wire.Event{Kind: wire.EventError,
				Error: fmt.Sprintf("stream: tenant %q requested but this listener is single-tenant", req.Tenant)})
			return
		}
		var err error
		broker, db, err = s.resolver(req.Tenant)
		if err != nil {
			_ = wc.WriteFrame(wire.Event{Kind: wire.EventError,
				Error: fmt.Sprintf("stream: tenant %q: %v", req.Tenant, err)})
			return
		}
	}
	if (req.Snapshot || req.ResumeFrom > 0) && db == nil {
		_ = wc.WriteFrame(wire.Event{Kind: wire.EventError,
			Error: "stream: snapshot requested but the middlebox has no persistent store"})
		return
	}
	opts := subOptions(req, conn)
	tc := &tailConn{wc: wc, tenant: req.Tenant}

	if req.ResumeFrom > 0 {
		// Exactly-once resume: replay [ResumeFrom, now) from the store via
		// snapshot-then-follow, pushing the seq predicate down into both the
		// snapshot scan and the live-feed filter. The store head and the
		// retention floor bound what is replayable.
		if head := db.NextSeq(); req.ResumeFrom > head {
			_ = tc.write(wire.Event{Kind: wire.EventError,
				Error: fmt.Sprintf("stream: resume from seq %d is beyond the store head %d", req.ResumeFrom, head)})
			return
		}
		if floor := db.SeqFloor(); req.ResumeFrom < floor {
			// The resume point predates retention: say exactly how many
			// records are unrecoverable, then degrade to a full snapshot of
			// what the store still holds.
			if tc.write(wire.Event{Kind: wire.EventResumeGap, Gap: floor - req.ResumeFrom}) != nil {
				return
			}
		} else {
			opts.Filter.MinSeq = req.ResumeFrom
		}
		s.serveTail(conn, wc, tc, broker, db, opts)
		return
	}
	if req.Snapshot {
		s.serveTail(conn, wc, tc, broker, db, opts)
		return
	}
	sub := broker.Subscribe(opts)
	defer sub.Close()
	if !s.ln.OnDrain(conn, sub.Close) {
		return
	}
	s.supervise(conn, wc, tc, sub)
	s.pump(tc, sub, 0)
}

// tailConn serializes writes to one tail connection. A wire.Conn is not
// safe for concurrent use of the same direction, and with heartbeats the
// write direction gains a second writer: the pinger goroutine interleaving
// control frames with the pump's events.
type tailConn struct {
	mu sync.Mutex
	wc *wire.Conn
	// tenant is the subscription's tenant tag, carried onto delivery spans.
	tenant string
}

func (tc *tailConn) write(v any) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.wc.WriteFrame(v)
}

// supervise watches one subscribed connection for death. Under a heartbeat
// regime the peer is actively probed: pings every interval, a read
// deadline covering the expected pong, and reaping on the first missed
// deadline — which detects a half-open connection (peer gone, TCP none the
// wiser) that would otherwise leak the subscriber and its goroutines until
// the next write. With heartbeats off the passive watcher runs instead:
// any read completing means the conversation is over.
func (s *Server) supervise(conn net.Conn, wc *wire.Conn, tc *tailConn, sub *Subscriber) {
	if s.hb > 0 {
		s.superviseHeartbeat(conn, wc, tc, sub)
		return
	}
	s.watchConn(conn, sub)
}

// watchConn closes sub as soon as the client's connection dies. The tail
// protocol is server-push after the Subscribe frame, so any read
// completing — EOF, a reset, or a protocol-violating extra byte — means
// the conversation is over. Without the watcher a dead tailer is only
// discovered on the next write: a quiet feed would leave its subscriber
// registered (and a Block-policy ring able to stall the producer)
// indefinitely.
func (s *Server) watchConn(conn net.Conn, sub *Subscriber) {
	s.ln.Go(func() {
		var buf [1]byte
		_, _ = conn.Read(buf[:])
		sub.Close() // wakes the pump's Recv and detaches the ring
	})
}

// superviseHeartbeat runs the active liveness pair for one connection:
// a pinger writing probes every interval and a reader that demands each
// pong inside the heartbeat deadline. Either side failing reaps the
// subscriber at that moment — the reap point where the ring detaches and
// (through detach) its per-subscriber obs metrics unregister.
func (s *Server) superviseHeartbeat(conn net.Conn, wc *wire.Conn, tc *tailConn, sub *Subscriber) {
	done := make(chan struct{})
	s.ln.Go(func() { // reader: the client's only legal frames after Subscribe are pongs
		defer close(done)
		defer sub.Close()
		for s.ln.Arm(conn, s.deadline()) {
			var pong wire.Pong
			if err := wc.ReadFrame(&pong); err != nil {
				return // timeout (half-open), EOF, or a protocol violation
			}
		}
	})
	s.ln.Go(func() { // pinger
		t := time.NewTicker(s.hb)
		defer t.Stop()
		var seq uint64
		for {
			select {
			case <-t.C:
				seq++
				if tc.write(&wire.Ping{Seq: seq}) != nil {
					sub.Close()
					return
				}
			case <-done:
				return
			}
		}
	})
}

// serveTail runs the snapshot-then-follow protocol: history, the
// snapshot-end marker, then the live feed — against the resolved tenant's
// broker and store.
func (s *Server) serveTail(conn net.Conn, wc *wire.Conn, tc *tailConn, broker *Broker, db *tracedb.DB, opts SubOptions) {
	tail := broker.Tail(db, opts)
	// Close the whole tail, not just its subscriber: a client that dies
	// mid-snapshot abandons the iterator, and an unreleased iterator pins
	// segment files the lifecycle engine has retired.
	defer tail.Close()
	if !s.ln.OnDrain(conn, tail.Subscriber().Close) {
		return
	}
	s.supervise(conn, wc, tc, tail.Subscriber())

	err := tail.Snapshot(func(r store.Record) error {
		rec := r
		return tc.write(wire.Event{Kind: wire.EventTrace, Record: &rec})
	})
	if err != nil {
		_ = tc.write(wire.Event{Kind: wire.EventError, Error: err.Error()})
		return
	}
	if tc.write(wire.Event{Kind: wire.EventSnapshotEnd}) != nil {
		return
	}
	var reported uint64
	for {
		ev, ok := tail.Recv()
		if !ok {
			return
		}
		if s.writeEvent(tc, ev, tail.Subscriber(), &reported) != nil {
			return
		}
	}
}

// pump forwards live events until the client disconnects or the subscriber
// closes.
func (s *Server) pump(tc *tailConn, sub *Subscriber, reportedDrops uint64) {
	for {
		ev, ok := sub.Recv()
		if !ok {
			return
		}
		if s.writeEvent(tc, ev, sub, &reportedDrops) != nil {
			return
		}
	}
}

// writeEvent frames one event, attaching the number of events shed since the
// previous frame so the client's drop accounting stays exact. Traced records
// carry their trace context onto the frame (so the tailer can stitch), and a
// successful delivery records a "stream.deliver" child span — the last hop
// of the record's trace tree.
func (s *Server) writeEvent(tc *tailConn, ev Event, sub *Subscriber, reported *uint64) error {
	frame := wire.Event{}
	switch ev.Kind {
	case KindTrace:
		rec := ev.Record
		frame.Kind = wire.EventTrace
		frame.Record = &rec
		frame.TraceID, frame.SpanID = rec.TraceID, rec.SpanID
	case KindPower:
		sample := ev.Sample
		frame.Kind = wire.EventPower
		frame.Sample = &sample
	default:
		return nil
	}
	if dropped := sub.Stats().Dropped; dropped > *reported {
		frame.Dropped = dropped - *reported
		*reported = dropped
	}
	err := tc.write(frame)
	if err == nil && frame.TraceID != 0 && s.spans.Enabled() {
		// A point event at the record's own timestamp: the stream layer has
		// no injected clock (deliveries are wall-time anyway), and what the
		// tree needs is which subscriber got the record, not a duration.
		rec := ev.Record
		sp := span.Span{TraceID: frame.TraceID, SpanID: s.spans.NewID(), ParentID: frame.SpanID,
			Name: "stream.deliver", Tenant: tc.tenant, Start: rec.EndTime, End: rec.EndTime}
		sp.SetAttr("subscriber", sub.name)
		s.spans.Record(sp)
	}
	return err
}

// Close stops the listener, closes every live tail, and waits for the
// connection goroutines to exit.
func (s *Server) Close() error { return s.ln.Close() }

// Drain is graceful shutdown: stop accepting, detach every subscriber from
// its broker (no new events enter the rings), let each pump flush its
// already-buffered events to its client, and wait for the connection
// goroutines — up to ctx's deadline, after which the remaining connections
// are severed Close-style. A connection still negotiating has nothing to
// flush and is nudged off its read. It returns nil when every tail flushed
// in time, ctx.Err() otherwise. Close afterwards is a harmless no-op.
func (s *Server) Drain(ctx context.Context) error { return s.ln.Drain(ctx) }

// connFailed reports whether a read error is the connection failing — EOF,
// a deadline, a closed or reset socket — rather than a frame that arrived
// and failed to decode.
func connFailed(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}

// subOptions maps a validated Subscribe frame onto broker options.
func subOptions(req wire.Subscribe, conn net.Conn) SubOptions {
	opts := SubOptions{
		Name:   req.Name,
		Buffer: req.Buffer,
		Power:  req.Power,
		Filter: tracedb.Query{
			Device: req.Device, Key: req.Key,
			Procedure: req.Procedure, Run: req.Run,
		},
	}
	if opts.Name == "" {
		opts.Name = conn.RemoteAddr().String()
	}
	if opts.Buffer > maxSubscriberBuffer {
		opts.Buffer = maxSubscriberBuffer
	}
	if req.Policy == wire.PolicyBlock {
		opts.Policy = Block
	}
	return opts
}

// SubscribeError is a subscription failure the server reported explicitly
// (an EventError frame): the request itself was refused — bad tenant,
// missing store, resume point beyond the head. It is permanent for the
// request as sent, which is how ResilientTail tells "redial the same
// subscription" from "this subscription will never work".
type SubscribeError struct {
	Msg string
}

func (e *SubscribeError) Error() string { return "stream: subscription failed: " + e.Msg }

// Client is the tail-consumer side: it dials a stream listener, sends the
// Subscribe frame, and decodes Event frames.
type Client struct {
	conn net.Conn
	wc   *wire.Conn
	idle time.Duration
}

// Dial connects to a stream listener and subscribes. The request's Op is
// set for the caller.
func Dial(addr string, req wire.Subscribe) (*Client, error) {
	return DialProto(addr, req, wire.ProtoV2)
}

// DialProto is Dial with the protocol spelled out; wire.ProtoV2 is the
// only version wire.Dial accepts.
func DialProto(addr string, req wire.Subscribe, proto wire.Proto) (*Client, error) {
	conn, wc, err := wire.Dial(addr, proto, nil)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	req.Op = wire.OpSubscribe
	if err := wc.WriteFrame(req); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: send subscribe: %w", err)
	}
	return &Client{conn: conn, wc: wc}, nil
}

// Protocol reports the wire protocol version the subscription speaks.
func (c *Client) Protocol() wire.Version { return c.wc.Version() }

// SetIdleTimeout bounds how long Recv will wait for any frame from the
// server before reporting the connection dead. Against a heartbeating
// server (set it comfortably above the ping interval) this is the client
// half of liveness: a half-open connection surfaces as a timeout error
// instead of a Recv that blocks forever. Zero (the default) never times
// out.
func (c *Client) SetIdleTimeout(d time.Duration) { c.idle = d }

// Recv reads the next event frame, transparently answering the server's
// liveness pings. A server-reported subscription failure is surfaced as a
// *SubscribeError; io.EOF means the server closed the stream.
func (c *Client) Recv() (wire.Event, error) {
	for {
		if c.idle > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.idle))
		}
		var tf wire.TailFrame
		if err := c.wc.ReadFrame(&tf); err != nil {
			return wire.Event{}, err
		}
		if tf.Ping != nil {
			// Recv is the connection's only reader and (post-subscribe) only
			// writer, so the pong needs no extra synchronization.
			if err := c.wc.WriteFrame(&wire.Pong{Seq: tf.Ping.Seq}); err != nil {
				return wire.Event{}, err
			}
			continue
		}
		ev := *tf.Event
		if ev.Kind == wire.EventError {
			return wire.Event{}, &SubscribeError{Msg: ev.Error}
		}
		return ev, nil
	}
}

// Close terminates the subscription by closing the connection.
func (c *Client) Close() error { return c.conn.Close() }

package tracer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/wire"
)

// Mode selects how a virtualized device executes commands (§III).
type Mode int

const (
	// ModeDirect executes locally and uploads the trace to the middlebox.
	ModeDirect Mode = iota + 1
	// ModeRemote sends the command to the middlebox for execution.
	ModeRemote
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "DIRECT"
	case ModeRemote:
		return "REMOTE"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// RemoteError is the client-side representation of an error the middlebox
// reported for a REMOTE-mode command (e.g. a device fault).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Config configures a tracing session.
type Config struct {
	// DefaultMode applies to devices without a per-device override.
	DefaultMode Mode
	// Modes overrides the mode per device name — the paper's hybrid
	// configurations, where new devices run DIRECT while their middlebox
	// cabling is sorted out.
	Modes map[string]Mode
	// Procedure and Run label the traces produced by this session
	// (supervised runs carry their procedure type; empty means unsupervised,
	// which the middlebox labels "unknown procedure").
	Procedure string
	Run       string
}

// Session is a lab-computer-side tracing context: it hands out virtualized
// devices and owns the middlebox transport plus the background trace
// uploader. Close flushes pending DIRECT-mode uploads.
type Session struct {
	transport Transport
	clock     simclock.Clock

	mu      sync.Mutex
	cond    *sync.Cond // signalled when pending reaches zero
	cfg     Config
	locals  map[string]device.Device
	dropped uint64 // trace uploads that failed (tracing must not break the lab)
	pending int    // queued or in-flight async uploads

	traceCh chan wire.Request
	done    chan struct{}
	closed  bool

	// spans, when attached, records a client-side root span per Exec and
	// stamps its context into the outgoing request, stitching the
	// middlebox's server/exec spans under the client's across the wire.
	// Immutable after SetSpans; nil-safe.
	spans *span.Recorder
}

// NewSession creates a session over the given transport.
func NewSession(transport Transport, clock simclock.Clock, cfg Config) *Session {
	if cfg.DefaultMode == 0 {
		cfg.DefaultMode = ModeRemote
	}
	s := &Session{
		transport: transport,
		clock:     clock,
		cfg:       cfg,
		locals:    make(map[string]device.Device),
		traceCh:   make(chan wire.Request, 1024),
		done:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.uploadLoop()
	return s
}

// uploadLoop drains asynchronous DIRECT-mode trace uploads.
func (s *Session) uploadLoop() {
	defer close(s.done)
	for req := range s.traceCh {
		_, err := s.transport.RoundTrip(req)
		s.mu.Lock()
		if err != nil {
			s.dropped++
		}
		s.pending--
		if s.pending == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// SetSpans attaches a span flight recorder. Call before handing out
// Virtuals — it is not synchronized with in-flight Execs.
func (s *Session) SetSpans(r *span.Recorder) { s.spans = r }

// AttachLocal connects a device locally (required for DIRECT mode, where the
// device stays wired to the lab computer).
func (s *Session) AttachLocal(d device.Device) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locals[d.Name()] = d
}

// SetLabels changes the procedure/run labels applied to subsequent traces.
func (s *Session) SetLabels(procedure, run string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Procedure = procedure
	s.cfg.Run = run
}

// ModeFor returns the effective mode for a device name.
func (s *Session) ModeFor(name string) Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.cfg.Modes[name]; ok {
		return m
	}
	return s.cfg.DefaultMode
}

// DroppedTraces reports how many DIRECT-mode trace uploads failed.
func (s *Session) DroppedTraces() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Virtual returns the virtualized proxy for the named device: the drop-in
// replacement the experiment script uses instead of the real device class.
// In DIRECT mode the device must have been attached with AttachLocal.
func (s *Session) Virtual(name string) (device.Device, error) {
	mode := s.ModeFor(name)
	if mode == ModeDirect {
		s.mu.Lock()
		_, ok := s.locals[name]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("tracer: device %q is in DIRECT mode but not attached locally", name)
		}
	}
	return &Virtual{session: s, name: name}, nil
}

// Close flushes pending trace uploads and closes the transport.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.traceCh)
	<-s.done
	return s.transport.Close()
}

// Flush blocks until queued asynchronous trace uploads have drained.
func (s *Session) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending > 0 {
		s.cond.Wait()
	}
}

// Virtual is the virtualized device class (Fig. 3): it satisfies the same
// interface as the original device, executes the original logic, and logs
// every access through the middlebox.
type Virtual struct {
	session *Session
	name    string
}

var _ device.Device = (*Virtual)(nil)

// Name implements device.Device.
func (v *Virtual) Name() string { return v.name }

// Exec implements device.Device, routing by the session's mode for this
// device.
func (v *Virtual) Exec(cmd device.Command) (string, error) {
	cmd.Device = v.name
	s := v.session

	s.mu.Lock()
	proc, run := s.cfg.Procedure, s.cfg.Run
	local := s.locals[v.name]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "", errors.New("tracer: session closed")
	}

	switch s.ModeFor(v.name) {
	case ModeDirect:
		if local == nil {
			return "", fmt.Errorf("tracer: device %q not attached locally", v.name)
		}
		start := s.clock.Now()
		value, err := local.Exec(cmd)
		end := s.clock.Now()
		req := wire.Request{
			Op: wire.OpTrace, Device: v.name, Name: cmd.Name, Args: cmd.Args,
			Value:      value,
			StartNanos: start.UnixNano(), EndNanos: end.UnixNano(),
			Procedure: proc, Run: run,
		}
		if err != nil {
			req.Error = err.Error()
		}
		if sctx := s.spans.NewContext(); sctx.Valid() {
			// The client span brackets the local exec; the upload request
			// carries its context so the middlebox's trace-ingest span
			// stitches under it even though the upload is asynchronous.
			req.TraceID, req.SpanID = sctx.TraceID, sctx.SpanID
			sp := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID,
				Name: "client.exec", Start: start, End: end}
			sp.SetAttr("device", v.name)
			sp.SetAttr("command", cmd.Name)
			sp.SetAttr("mode", "DIRECT")
			if err != nil {
				sp.Outcome = span.OutcomeError
			}
			s.spans.Record(sp)
		}
		// The upload is asynchronous, keeping tracing off the command
		// latency path as in the paper; Flush waits for it.
		s.mu.Lock()
		select {
		case s.traceCh <- req:
			s.pending++
		default:
			// Queue full: drop the trace rather than stall the lab.
			s.dropped++
		}
		s.mu.Unlock()
		return value, err

	case ModeRemote:
		req := wire.Request{
			Op: wire.OpExec, Device: v.name, Name: cmd.Name, Args: cmd.Args,
			Procedure: proc, Run: run,
		}
		var sctx span.Context
		var start time.Time
		if s.spans.Enabled() {
			sctx = s.spans.NewContext()
			req.TraceID, req.SpanID = sctx.TraceID, sctx.SpanID
			start = s.clock.Now()
		}
		reply, err := s.transport.RoundTrip(req)
		if sctx.Valid() {
			sp := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID,
				Name: "client.exec", Start: start, End: s.clock.Now()}
			sp.SetAttr("device", v.name)
			sp.SetAttr("command", cmd.Name)
			sp.SetAttr("mode", "REMOTE")
			if err != nil || reply.Error != "" {
				sp.Outcome = span.OutcomeError
			}
			s.spans.Record(sp)
		}
		if err != nil {
			return "", fmt.Errorf("tracer: remote exec %s: %w", cmd.Name, err)
		}
		if reply.Error != "" {
			return reply.Value, &RemoteError{Msg: reply.Error}
		}
		return reply.Value, nil

	default:
		return "", fmt.Errorf("tracer: device %q has invalid mode", v.name)
	}
}

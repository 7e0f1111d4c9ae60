// Package tracer is the reproduction's RATracer: the non-intrusive tracing
// framework retrofitted onto the automation pipeline (§III).
//
// Go has no monkey patching, so the paper's "virtualized classes" map onto
// interface substitution: every device the lab code talks to is wrapped in a
// Virtual proxy that satisfies the same device.Device interface, executes
// the original logic, and logs every access. Enabling tracing is a one-line
// change — construct devices through a Session instead of directly — which
// mirrors the paper's single-import ideal.
//
// A Session runs each device in one of two modes, configurable per device
// (hybrid configurations, §III):
//
//   - DIRECT: the command executes on the locally attached device; the trace
//     record is uploaded to the middlebox, which only collects data.
//   - REMOTE: the command is sent to the middlebox, which owns the device,
//     executes the command, logs it, and returns the response.
package tracer

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"

	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/wire"
)

// Transport carries requests from the lab computer to the middlebox.
type Transport interface {
	// RoundTrip sends one request and waits for its reply.
	RoundTrip(req wire.Request) (wire.Reply, error)
	Close() error
}

// TCPTransport is a Transport over a real TCP connection using the binary
// wire protocol. Requests are serialized: the middlebox protocol is
// strictly request/reply per connection.
type TCPTransport struct {
	mu     sync.Mutex
	conn   net.Conn
	wc     *wire.Conn
	nextID uint64
	closed bool
}

var _ Transport = (*TCPTransport)(nil)

// DialTCP connects to a middlebox server and performs the wire handshake.
func DialTCP(addr string) (*TCPTransport, error) {
	conn, wc, err := wire.Dial(addr, wire.ProtoV2, nil)
	if err != nil {
		return nil, fmt.Errorf("tracer: dial middlebox %s: %w", addr, err)
	}
	return &TCPTransport{conn: conn, wc: wc}, nil
}

// RoundTrip implements Transport.
func (t *TCPTransport) RoundTrip(req wire.Request) (wire.Reply, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return wire.Reply{}, errors.New("tracer: transport closed")
	}
	t.nextID++
	req.ID = t.nextID
	if err := t.wc.WriteFrame(req); err != nil {
		return wire.Reply{}, fmt.Errorf("tracer: send request: %w", err)
	}
	var reply wire.Reply
	if err := t.wc.ReadFrame(&reply); err != nil {
		return wire.Reply{}, fmt.Errorf("tracer: read reply: %w", err)
	}
	if reply.ID != req.ID {
		return wire.Reply{}, fmt.Errorf("tracer: reply id %d for request %d", reply.ID, req.ID)
	}
	return reply, nil
}

// Close closes the underlying connection.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.conn.Close()
}

// LocalTransport is an in-process Transport that calls straight into a
// middlebox Core, charging an emulated network profile to the injected
// clock. Under a virtual clock this reproduces REMOTE-mode timing without
// real sockets, which is how the three-month campaign is generated quickly
// and deterministically.
type LocalTransport struct {
	core    *middlebox.Core
	clock   simclock.Clock
	profile middlebox.NetworkProfile

	mu     sync.Mutex
	rng    *rand.Rand
	nextID uint64
}

var _ Transport = (*LocalTransport)(nil)

// NewLocalTransport builds an in-process transport to core.
func NewLocalTransport(core *middlebox.Core, clock simclock.Clock, profile middlebox.NetworkProfile, seed uint64) *LocalTransport {
	return &LocalTransport{
		core:    core,
		clock:   clock,
		profile: profile,
		rng:     rand.New(rand.NewPCG(seed, seed^0xe7037ed1a0b428db)),
	}
}

// RoundTrip implements Transport.
func (t *LocalTransport) RoundTrip(req wire.Request) (wire.Reply, error) {
	t.mu.Lock()
	t.nextID++
	req.ID = t.nextID
	in := t.profile.Delay(t.rng)
	out := t.profile.Delay(t.rng)
	t.mu.Unlock()

	t.clock.Sleep(in)
	reply := t.core.Handle(req)
	t.clock.Sleep(out)
	return reply, nil
}

// Close implements Transport; a local transport holds no resources.
func (t *LocalTransport) Close() error { return nil }

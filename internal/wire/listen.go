package wire

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"time"
)

// Listener is the TCP connection lifecycle shared by every wire listener:
// the accept loop, the set of live connections, and the two ways down —
// Close (sever now) and Drain (let in-flight work finish). What a server
// does with a connection is its serve function's business; the Listener
// only guarantees that every connection it accepted, and every goroutine
// started with Go, is accounted for at shutdown. The zero value is ready
// to use.
type Listener struct {
	mu sync.Mutex
	ln net.Listener
	// conns tracks every accepted connection from the moment it lands, so
	// shutdown can reach a peer that stalls mid-handshake. The value is the
	// connection's drain hook (see OnDrain), nil until one is set.
	conns  map[net.Conn]func()
	closed bool
	wg     sync.WaitGroup
}

// Start listens on addr (e.g. "127.0.0.1:0") and runs serve on its own
// goroutine for each accepted connection, closing the connection when
// serve returns. It returns the bound address.
func (l *Listener) Start(addr string, serve func(net.Conn)) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("wire: listener already closed")
	}
	l.ln = ln
	l.mu.Unlock()

	l.wg.Add(1)
	go l.accept(ln, serve)
	return ln.Addr().String(), nil
}

func (l *Listener) accept(ln net.Listener, serve func(net.Conn)) {
	defer l.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		if l.conns == nil {
			l.conns = make(map[net.Conn]func())
		}
		l.conns[conn] = nil
		l.mu.Unlock()

		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer func() {
				_ = conn.Close()
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
			}()
			serve(conn)
		}()
	}
}

// Arm sets conn's read deadline d from now before its next read (d <= 0
// clears it), reporting false once the listener is closing. The closed
// check and the deadline share the lock with Drain, so a drain nudge (an
// expired read deadline) is never overwritten by the connection's own.
func (l *Listener) Arm(conn net.Conn, d time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	_ = conn.SetReadDeadline(t)
	return true
}

// OnDrain sets the hook Drain and Close run for conn in place of the
// default read-deadline nudge — a tail server detaching its subscriber so
// the buffered backlog still flushes. It reports false once the listener
// is closing; the caller then ends the connection itself.
func (l *Listener) OnDrain(conn net.Conn, fn func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conns[conn] = fn
	return true
}

// Go runs fn on a supervisor goroutine that Close and Drain wait for. Call
// it from a serve function, whose own goroutine keeps the wait open.
func (l *Listener) Go(fn func()) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fn()
	}()
}

// Draining reports whether Drain (or Close) has begun — a listener's
// contribution to a drain-aware /healthz.
func (l *Listener) Draining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Close stops the listener, runs every connection's drain hook, closes
// every live connection, and waits for the serve and supervisor goroutines
// to exit.
func (l *Listener) Close() error {
	ln, conns := l.shut()
	for conn, hook := range conns {
		if hook != nil {
			hook()
		}
		_ = conn.Close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	l.wg.Wait()
	return err
}

// Drain is graceful shutdown: stop accepting and let every connection
// finish what it has in flight. A connection with a drain hook runs it; any
// other is nudged with an expired read deadline, which ends its blocked
// read without touching the write direction, so a reply mid-flight still
// goes out. The goroutines are awaited up to ctx's deadline, after which
// the stragglers are severed Close-style and Drain returns ctx.Err()
// without waiting further (a serve function stuck in user code cannot be
// unblocked by a dead socket; like net/http's Shutdown, its goroutine is
// abandoned to finish on its own). Returns nil when everything finished in
// time. Close afterwards is a harmless no-op that waits for any
// stragglers.
func (l *Listener) Drain(ctx context.Context) error {
	ln, conns := l.shut()
	for conn, hook := range conns {
		if hook != nil {
			hook()
		} else {
			_ = conn.SetReadDeadline(time.Now())
		}
	}
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		for conn := range l.conns {
			_ = conn.Close()
		}
		l.mu.Unlock()
		return ctx.Err()
	}
}

// shut marks the listener closed and hands back its net.Listener (nil if
// already shut) and a copy of the live connections with their drain
// hooks. Once closed, Arm and OnDrain refuse, so no deadline or hook can
// change after the copy and the caller acts on it outside the lock.
func (l *Listener) shut() (net.Listener, map[net.Conn]func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	ln := l.ln
	l.ln = nil
	return ln, maps.Clone(l.conns)
}

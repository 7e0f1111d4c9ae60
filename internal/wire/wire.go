// Package wire implements the RPC message framing used between the lab
// computer (the tracer client) and the trusted middlebox.
//
// The paper's RATracer uses gRPC; this reproduction keeps the same
// architecture — a client stub on the lab computer and a server on the
// middlebox exchanging one message per device command — but implements the
// transport with the standard library only: a compact binary codec
// (binary.go) over a net.Conn, opened by a five-byte version preamble
// (conn.go). Every frame is
//
//	+-------------------+----------------------+
//	| uvarint length    | tagged binary payload |
//	+-------------------+----------------------+
//
// Frames larger than MaxFrameSize are rejected on both ends so that a
// corrupted or malicious peer cannot force unbounded allocation — the
// middlebox is the trusted component and must not be crashable from the
// untrusted lab computer (Fig. 1).
package wire

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// MaxFrameSize bounds a single frame. Device commands and responses are tiny
// (tens to hundreds of bytes); 1 MiB leaves generous headroom for batched
// trace uploads without allowing unbounded allocation.
const MaxFrameSize = 1 << 20

// ErrFrameTooLarge is returned when an incoming frame header announces a
// payload larger than MaxFrameSize. Errors produced by the frame reader
// wrap it with the announced size, so a log line is enough to tell a
// corrupted header (absurd size) from an oversized-but-real frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// frameTooLarge wraps ErrFrameTooLarge with the size the peer announced;
// errors.Is(err, ErrFrameTooLarge) still matches.
func frameTooLarge(announced uint64) error {
	return fmt.Errorf("%w (announced %d bytes, limit %d)", ErrFrameTooLarge, announced, MaxFrameSize)
}

// Op identifies the kind of request carried in a frame.
type Op string

// Request operations understood by the middlebox server.
const (
	// OpExec asks the middlebox to execute a device command and return the
	// response (REMOTE mode: the middlebox owns the device connection).
	OpExec Op = "exec"
	// OpTrace uploads a trace record for a command the client executed
	// locally (DIRECT mode: the middlebox only collects trace data).
	OpTrace Op = "trace"
	// OpPing measures round-trip time and checks liveness.
	OpPing Op = "ping"
)

// Request is one lab-computer → middlebox message. Exactly one device command
// per request, mirroring RATracer's per-access interception.
type Request struct {
	ID     uint64   `json:"id"`
	Op     Op       `json:"op"`
	Device string   `json:"device,omitempty"`
	Name   string   `json:"name,omitempty"`
	Args   []string `json:"args,omitempty"`

	// Tenant addresses one lab instance behind a fleet listener
	// (internal/fleet). Empty — the zero value — means the listener's
	// default tenant, so a single-tenant peer that has never heard of
	// tenancy keeps working unchanged: the field is omitted from the frame
	// entirely when empty.
	Tenant string `json:"tenant,omitempty"`

	// DIRECT-mode trace uploads carry the locally observed outcome.
	Value      string `json:"value,omitempty"`
	Error      string `json:"error,omitempty"`
	StartNanos int64  `json:"startNanos,omitempty"`
	EndNanos   int64  `json:"endNanos,omitempty"`
	Procedure  string `json:"procedure,omitempty"`
	Run        string `json:"run,omitempty"`

	// TraceID/SpanID propagate the client's trace context (internal/obs/span)
	// so the middlebox stitches its server-side spans under the caller's.
	// Zero — the zero value — means "untraced", so peers that predate tracing
	// interoperate unchanged: the pair is omitted from the frame entirely when
	// zero, exactly like Tenant.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`
}

// Reply is one middlebox → lab-computer message.
type Reply struct {
	ID    uint64 `json:"id"`
	Value string `json:"value,omitempty"`
	Error string `json:"error,omitempty"`
}

// pooledLimit caps how large a buffer the frame pool retains. Typical
// frames are well under a kilobyte; a rare near-MaxFrameSize frame must not
// pin a megabyte in every pool slot.
const pooledLimit = 64 << 10

// bufPool holds the raw frame buffers the binary codec encodes into and
// reads payloads into, in both directions.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(pb *[]byte) {
	if cap(*pb) <= pooledLimit {
		bufPool.Put(pb)
	}
}

// sizeBuf returns (*pb)[:n], growing the backing array when it is too
// small. Growth goes to the next power of two (capped at pooledLimit, the
// largest buffer the pool retains), so a ramp of slowly growing frames
// amortizes its reallocation instead of paying one per read; frames above
// pooledLimit get an exact-size buffer, since it will not be pooled anyway.
func sizeBuf(pb *[]byte, n int) []byte {
	if cap(*pb) < n {
		c := n
		if n <= pooledLimit {
			c = 1 << bits.Len(uint(n-1))
		}
		*pb = make([]byte, c)
	}
	return (*pb)[:n]
}

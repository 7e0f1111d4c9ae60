package wire

// The connection preamble and the framed connection.
//
// A client opens its connection with a five-byte preamble — the magic
// "RAD2" followed by the version byte — and waits for the server to echo
// it before the first frame. Any other opening is refused before a single
// frame is decoded: the listener drops the connection without a reply,
// whether the peer sent a pre-binary JSON frame (whose 4-byte length
// header starts 0x00), a future version byte, or noise. Keeping the
// version byte lets a later protocol be refused just as cleanly.
//
//	client                         server
//	  | 'R''A''D''2' 0x02  ----->   |    (preamble)
//	  |        <-----  'R''A''D''2' 0x02 (ack)
//	  | binary frames  <---------> binary frames

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Version is a wire protocol version as carried in the preamble.
type Version byte

// V2 is the binary framing of binary.go, the only version spoken.
const V2 Version = 2

// String returns the version as spelled in metrics labels.
func (v Version) String() string { return fmt.Sprintf("v%d", byte(v)) }

// Proto is the protocol selector Dial accepts. V2 is the only protocol, so
// ProtoV2 is the only value Dial does not refuse.
type Proto = Version

// ProtoV2 selects the binary protocol.
const ProtoV2 = V2

// preambleLen is the size of the connection preamble: 4 magic bytes plus
// the version byte.
const preambleLen = 5

// preamble is the connection opener and its ack: magic + version.
var preamble = [preambleLen]byte{'R', 'A', 'D', '2', byte(V2)}

// prefixLen reserves room for the largest uvarint length prefix a legal
// frame can need (MaxFrameSize fits in 3 bytes; 5 leaves headroom).
const prefixLen = 5

// zeroPrefix is the placeholder the encoder reserves for the length
// prefix, patched after the payload is built.
var zeroPrefix [prefixLen]byte

// connBufSize sizes each connection's read buffer: most frames fit.
const connBufSize = 8 << 10

// Conn is one wire connection: framed binary reads and writes. A Conn is
// not safe for concurrent use of the same direction; the request/reply and
// tail protocols already serialize each direction.
type Conn struct {
	w  io.Writer
	br *bufio.Reader
	m  *Metrics

	// capture, when set, retains the latest per-frame codec latencies for
	// LastCodecLatency. Like the metrics timers it measures the marshal step
	// only — never socket I/O — so a span built from it reflects codec work,
	// not idle wait. Single-threaded per direction, like the codec itself.
	capture bool
	lastDec time.Duration
	lastEnc time.Duration
}

// NewConn wraps rw as a framed connection with no handshake bytes
// exchanged — the building block for Accept and Client, and for tests and
// benchmarks that want a codec without a socket. m may be nil.
func NewConn(rw io.ReadWriter, m *Metrics) *Conn {
	return &Conn{w: rw, br: bufio.NewReaderSize(rw, connBufSize), m: m}
}

// Version reports the protocol version the connection speaks.
func (c *Conn) Version() Version { return V2 }

// Accept performs the server side of the handshake on a fresh connection:
// it reads the five-byte preamble and echoes it. Any other opening is an
// error, and the caller drops the connection without a reply.
func Accept(rw io.ReadWriter, m *Metrics) (*Conn, error) {
	c := NewConn(rw, m)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(c.br, pre[:]); err != nil {
		return nil, fmt.Errorf("wire: read preamble: %w", err)
	}
	if [4]byte(pre[:4]) != [4]byte(preamble[:4]) {
		return nil, fmt.Errorf("wire: bad preamble magic %q", pre[:4])
	}
	if pre[4] != byte(V2) {
		return nil, fmt.Errorf("wire: unsupported protocol version %d (want %d)", pre[4], V2)
	}
	if _, err := rw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: write preamble ack: %w", err)
	}
	c.countConn()
	return c, nil
}

// Client performs the client side of the handshake: preamble out, ack in.
// The error distinguishes a dead connection from a server that answered
// with something other than the ack.
func Client(rw io.ReadWriter, m *Metrics) (*Conn, error) {
	c := NewConn(rw, m)
	if _, err := rw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: write preamble: %w", err)
	}
	var ack [preambleLen]byte
	if _, err := io.ReadFull(c.br, ack[:]); err != nil {
		return nil, fmt.Errorf("wire: handshake: no preamble ack: %w", err)
	}
	if ack != preamble {
		return nil, fmt.Errorf("wire: handshake: bad ack % x", ack[:])
	}
	c.countConn()
	return c, nil
}

// Dial connects to addr over TCP and performs the client handshake. proto
// must be ProtoV2; any other version is refused before dialling.
func Dial(addr string, proto Proto, m *Metrics) (net.Conn, *Conn, error) {
	if proto != V2 {
		return nil, nil, fmt.Errorf("wire: unsupported protocol %s (only %s)", proto, V2)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	wc, err := Client(conn, m)
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	return conn, wc, nil
}

// ReadFrame reads one frame and decodes it into v.
func (c *Conn) ReadFrame(v any) error {
	size, err := binary.ReadUvarint(c.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("wire: read frame header: %w", err)
	}
	if size > MaxFrameSize {
		return frameTooLarge(size)
	}
	pb := getBuf()
	defer putBuf(pb)
	payload := sizeBuf(pb, int(size))
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return fmt.Errorf("wire: read frame payload: %w", err)
	}
	start := c.stamp()
	if err := decodeBinaryFrame(payload, v); err != nil {
		return err
	}
	c.observeRead(start)
	return nil
}

// WriteFrame encodes v and writes it as one frame with a single Write
// call.
func (c *Conn) WriteFrame(v any) error {
	pb := getBuf()
	defer putBuf(pb)
	start := c.stamp()
	buf := append((*pb)[:0], zeroPrefix[:]...)
	buf, err := appendBinaryFrame(buf, v)
	if err != nil {
		return err
	}
	*pb = buf // keep any growth for the pool
	n := len(buf) - prefixLen
	if n > MaxFrameSize {
		return frameTooLarge(uint64(n))
	}
	// Patch the uvarint length into the tail of the reserved prefix so the
	// frame goes out in one Write.
	var tmp [prefixLen]byte
	ln := binary.PutUvarint(tmp[:], uint64(n))
	off := prefixLen - ln
	copy(buf[off:], tmp[:ln])
	c.observeWrite(start)
	if _, err := c.w.Write(buf[off:]); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// CaptureCodecLatency turns on per-frame codec-latency capture so a server
// can record wire decode/encode spans without attaching full Metrics.
func (c *Conn) CaptureCodecLatency() { c.capture = true }

// LastCodecLatency reports the codec time of the most recent read and write
// on this connection. Zero until CaptureCodecLatency is enabled and a frame
// has moved in that direction.
func (c *Conn) LastCodecLatency() (dec, enc time.Duration) {
	return c.lastDec, c.lastEnc
}

// stamp returns the encode/decode timer start, or the zero time when the
// connection is uninstrumented — the hot path pays nothing for metrics it
// does not have.
func (c *Conn) stamp() time.Time {
	if c.m == nil && !c.capture {
		return time.Time{}
	}
	return time.Now()
}

func (c *Conn) countConn() {
	if c.m != nil {
		c.m.conns.Inc()
	}
}

func (c *Conn) observeRead(start time.Time) {
	if c.m == nil && !c.capture {
		return
	}
	d := time.Since(start)
	if c.capture {
		c.lastDec = d
	}
	if c.m != nil {
		c.m.rx.Inc()
		c.m.dec.Observe(d)
	}
}

func (c *Conn) observeWrite(start time.Time) {
	if c.m == nil && !c.capture {
		return
	}
	d := time.Since(start)
	if c.capture {
		c.lastEnc = d
	}
	if c.m != nil {
		c.m.tx.Inc()
		c.m.enc.Observe(d)
	}
}

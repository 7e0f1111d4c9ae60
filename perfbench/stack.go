package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/ika"
	"rad/internal/device/quantos"
	"rad/internal/device/tecan"
	"rad/internal/device/ur3e"
	"rad/internal/middlebox"
	"rad/internal/obs/span"
	"rad/internal/rad"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// hooks let the benchmark's own tests corrupt one layer and check that
// the gates notice. Production runs leave them nil.
type hooks struct {
	handler func(middlebox.Handler) middlebox.Handler
	sink    func(store.Sink) store.Sink
	records func([]store.Record)
}

// clockStart is where every device clock starts, so a stack and its
// reference replay see identical virtual time.
var clockStart = time.Date(2021, 6, 1, 9, 0, 0, 0, time.UTC)

// devices builds the five simulators, seeded as radmiddlebox seeds them
// (seed+1..seed+5), without the power monitor.
func devices(clock simclock.Clock, seed uint64) []device.Device {
	return []device.Device{
		c9.New(device.NewEnv(clock, seed+1)),
		ur3e.New(device.NewEnv(clock, seed+2), nil),
		ika.New(device.NewEnv(clock, seed+3)),
		tecan.New(device.NewEnv(clock, seed+4)),
		quantos.New(device.NewEnv(clock, seed+5)),
	}
}

// commandStream turns the generated campaign into the exec requests the
// serving workloads replay, in dataset order, opening each device with
// __init__ before its first command as radreplay does.
func commandStream(ds *rad.Dataset) []wire.Request {
	recs := ds.Store.All()
	out := make([]wire.Request, 0, len(recs)+5)
	inited := map[string]bool{}
	for _, r := range recs {
		if !inited[r.Device] {
			inited[r.Device] = true
			if r.Name != device.Init {
				out = append(out, wire.Request{Op: wire.OpExec, Device: r.Device, Name: device.Init})
			}
		}
		out = append(out, wire.Request{Op: wire.OpExec, Device: r.Device, Name: r.Name,
			Args: r.Args, Procedure: r.Procedure, Run: r.Run})
	}
	return out
}

// stack is what `radmiddlebox -store DIR -stream ADDR -network none`
// assembles, with devices on a virtual clock, the tracedb as the only sink,
// the span recorder at its shipped default, and no power feed; plus the
// load generator's v2 exec connection and one live v2 tail.
type stack struct {
	dir     string
	db      *tracedb.DB
	broker  *stream.Broker
	spans   *span.Recorder
	mbox    *middlebox.Server
	tailSrv *stream.Server

	execConn net.Conn
	exec     *wire.Conn
	tail     *stream.Client
	loopback bool

	probe *probe // nil unless traced
	openS float64
}

// newStack builds and starts a serving stack; p, when non-nil, wraps each
// layer's interface so the probe can time it from outside.
func newStack(dir string, seed uint64, p *probe, h hooks) (*stack, error) {
	s := &stack{dir: dir, probe: p}
	t0 := now()
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		return nil, err
	}
	s.openS = secs(now() - t0)
	s.db = db
	clock := simclock.NewVirtual(clockStart)
	s.spans = span.NewRecorder(span.Config{BufferPerShard: 512, Seed: seed})
	if p != nil {
		p.col = newSpanCollector(s.spans)
	}

	var sink store.Sink = db
	if p != nil {
		sink = &probedSink{db: db, p: p}
	}
	if h.sink != nil {
		sink = h.sink(sink)
	}
	core := middlebox.NewCore(clock, sink)
	core.SetSpans(s.spans, "")
	s.broker = stream.NewBroker()
	core.AttachBroker(s.broker)
	for _, d := range devices(clock, seed) {
		if p != nil {
			d = probedDevice{next: d, p: p}
		}
		core.Register(d)
	}
	var handler middlebox.Handler = core
	if p != nil {
		handler = probedHandler{next: core, p: p}
	}
	if h.handler != nil {
		handler = h.handler(handler)
	}

	s.tailSrv = stream.NewServer(s.broker, db)
	s.tailSrv.SetSpans(s.spans)
	tailAddr, err := s.tailSrv.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.mbox = middlebox.NewHandlerServer(handler, middlebox.NetworkProfile{}, seed+6)
	s.mbox.SetSpans(s.spans)
	addr, err := s.mbox.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.tail, err = stream.DialProto(tailAddr, wire.Subscribe{Name: "perfbench-tail", Policy: wire.PolicyBlock}, wire.ProtoV2)
	if err != nil {
		s.close()
		return nil, err
	}
	s.execConn, s.exec, err = wire.Dial(addr, wire.ProtoV2, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	if s.exec.Version() != wire.V2 || s.tail.Protocol() != wire.V2 {
		s.close()
		return nil, fmt.Errorf("negotiated %s/%s, want v2", s.exec.Version(), s.tail.Protocol())
	}
	ta, _ := net.ResolveTCPAddr("tcp", addr)
	s.loopback = ta != nil && ta.IP.IsLoopback()
	if err := s.awaitTail(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// awaitTail waits until the tail's subscription is attached, so the first
// exec's record cannot be published before anyone listens.
func (s *stack) awaitTail() error {
	// It yields rather than sleeps: a short sleep overshoots by most of a
	// millisecond here, which would swamp the start-up time.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.broker.Stats()) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("tail subscription never attached")
		}
		runtime.Gosched()
	}
	return nil
}

// closeClients ends both client connections.
func (s *stack) closeClients() {
	if s.execConn != nil {
		_ = s.execConn.Close()
	}
	if s.tail != nil {
		_ = s.tail.Close()
	}
}

// close stops every server goroutine and closes the store; the caller
// removes the directory.
func (s *stack) close() {
	s.closeClients()
	if s.mbox != nil {
		_ = s.mbox.Close()
	}
	if s.tailSrv != nil {
		_ = s.tailSrv.Close()
	}
	if s.broker != nil {
		s.broker.Close()
	}
	if s.db != nil {
		_ = s.db.Close()
		s.db = nil
	}
}

// serveInput generates the seed's campaign and turns it into the command
// stream. It also returns the live heap, in MB, with the stream built:
// the benchmark's own input, which heap_live_mb leaves out so that it
// measures the serving stack.
func serveInput(cfg config, rep *report) ([]wire.Request, float64, error) {
	m0, t0 := readMem(), now()
	ds, err := rad.Generate(rad.Config{Seed: cfg.seed})
	if err != nil {
		return nil, 0, err
	}
	rep.metrics["rad.generate_s"] = secs(now() - t0)
	rep.metrics["rad.generate_alloc_mb"] = allocMB(m0, readMem())
	reqs := commandStream(ds)
	ds = nil
	rep.notes["stream_len"] = len(reqs)
	return reqs, liveHeapMB(), nil
}

// startStacks starts a serving stack n times, tearing down every one but
// the last, and returns the last with the median start-up seconds: tracedb
// open, both listeners, both dials and the tail's subscription.
func startStacks(cfg config, n int, p *probe, rep *report) (*stack, float64, error) {
	var times []float64
	var s *stack
	for i := 0; i < max(n, 1); i++ {
		if s != nil {
			s.close()
			_ = os.RemoveAll(s.dir)
		}
		runtime.GC() // each start-up begins from the same heap, without the last one's garbage
		dir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d", i))
		t0 := now()
		var err error
		if s, err = newStack(dir, cfg.seed, p, cfg.hooks); err != nil {
			return nil, 0, err
		}
		times = append(times, secs(now()-t0))
	}
	runtime.GC()
	rep.metrics["tracedb.open_s"] = s.openS
	rep.notes["loopback"] = s.loopback
	return s, medianF(times), nil
}

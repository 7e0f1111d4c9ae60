package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

const (
	// closedWarmup requests precede lab-replay's timed window.
	closedWarmup = 2000
	// tracedShare of a traced serving run uses the traced stack; the rest
	// runs the same shape untraced, for trace.overhead_pct.
	tracedShare = 0.7
	// perSecondCap bounds the per-request columns; a run that would
	// exceed it stops sending early.
	perSecondCap = 150000
	// drainWait bounds how long the end of a run waits for outstanding
	// tail events before counting them missing.
	drainWait = 10 * time.Second
)

// runlog holds one session's per-request columns, indexed by request
// (request ID - 1 = tracedb sequence number).
type runlog struct {
	reqs []wire.Request
	n    int // requests sent

	send, writeEnd, recv []int64
	replyHash            []uint64
	badReplies           int64 // misnumbered replies

	tailRecv     []int64
	tailHash     []uint64
	tailBad      []bool
	tailCount    atomic.Int64
	tailDisorder int64
	tailDropped  uint64

	// timed window: requests [from, to), from start on
	from, to int
	start    int64

	// heapMB is the live heap, in MB, once heapAt requests are answered
	// (or at the end, if fewer are sent)
	heapAt int
	heapMB float64
}

func newRunlog(reqs []wire.Request, capacity int) (*runlog, error) {
	lg := &runlog{reqs: reqs}
	if err := columns(capacity, &lg.send, &lg.writeEnd, &lg.recv, &lg.tailRecv); err != nil {
		return nil, err
	}
	if err := columns(capacity, &lg.replyHash, &lg.tailHash); err != nil {
		return nil, err
	}
	return lg, columns(capacity, &lg.tailBad)
}

func (lg *runlog) request(i int) wire.Request {
	req := lg.reqs[i%len(lg.reqs)]
	req.ID = uint64(i + 1)
	return req
}

// tailLoop consumes the live tail until its connection closes: sequence
// numbers must arrive 0, 1, 2, ... exactly once, each record carrying the
// command that was sent.
func (lg *runlog) tailLoop(s *stack, col *spanCollector) {
	next := uint64(0)
	for {
		if col != nil && next%8 == 0 {
			col.maybeCollect()
		}
		ev, err := s.tail.Recv()
		if err != nil {
			return
		}
		if ev.Kind != wire.EventTrace || ev.Record == nil {
			continue
		}
		t := now()
		lg.tailDropped += ev.Dropped
		r := ev.Record
		if r.Seq != next || int(r.Seq) >= len(lg.tailRecv) {
			lg.tailDisorder++
			continue
		}
		lg.tailRecv[next] = t
		lg.tailHash[next] = outcomeHash(r.Response, r.Exception)
		want := &lg.reqs[int(next)%len(lg.reqs)]
		lg.tailBad[next] = r.Device != want.Device || r.Name != want.Name || !slices.Equal(r.Args, want.Args)
		next++
		lg.tailCount.Store(int64(next))
	}
}

// drive is lab-replay's load: one request in flight, the next sent when
// the reply arrives.
func (lg *runlog) drive(s *stack, dur time.Duration, col *spanCollector) error {
	for i := 0; i < len(lg.send); i++ {
		if i == lg.heapAt {
			lg.heapMB = liveHeapMB()
		}
		if i == closedWarmup {
			lg.start = now()
			lg.from = i
		}
		if i > closedWarmup && now()-lg.start >= int64(dur) {
			break
		}
		req := lg.request(i)
		lg.send[i] = now()
		if err := s.exec.WriteFrame(&req); err != nil {
			return err
		}
		lg.writeEnd[i] = now()
		var rep wire.Reply
		if err := s.exec.ReadFrame(&rep); err != nil {
			return err
		}
		lg.recv[i] = now()
		if rep.ID != uint64(i+1) {
			lg.badReplies++
		}
		lg.replyHash[i] = outcomeHash(rep.Value, rep.Error)
		lg.n = i + 1
		if col != nil && i%8 == 0 {
			col.maybeCollect()
		}
	}
	lg.to = lg.n
	if lg.n < lg.heapAt {
		lg.heapMB = liveHeapMB()
	}
	return nil
}

// session is one serving run on one stack: traffic, teardown, gates.
type session struct {
	lg      *runlog
	codec   codecSpans
	col     *spanCollector
	scanNs  int64
	dbBytes int64
	dbSegs  int
	memA    memSnap
	memB    memSnap
	cpu     time.Duration // process CPU time while traffic ran
	phase   *phaseSampler // memory and steal while traffic ran
	calm    *calm         // its seconds the hypervisor left alone
	dropped uint64
}

// runSession drives lab-replay traffic through s, tears the stack
// down, and checks every correctness gate, adding to rep's counts.
func runSession(cfg config, s *stack, reqs []wire.Request, dur time.Duration, rep *report) (*session, error) {
	capacity := int((cfg.seconds + 1) * perSecondCap)
	lg, err := newRunlog(reqs, capacity)
	if err != nil {
		s.close()
		return nil, err
	}
	// The heap is read after one full replay of the stream: a fixed amount
	// of work, since the store's in-memory indexes grow with its records.
	lg.heapAt = max(len(reqs), closedWarmup)
	ss := &session{lg: lg}
	stopPoll := func() {}
	if s.probe != nil {
		ss.col = s.probe.col
		stopPoll = ss.col.poll()
	}
	defer stopPoll()
	var tailWG sync.WaitGroup
	tailWG.Add(1)
	go func() {
		defer tailWG.Done()
		lg.tailLoop(s, ss.col)
	}()

	ss.memA = readMem()
	cpu0, t0 := processCPU(), now()
	ss.phase = startPhase()
	err = lg.drive(s, dur, ss.col)
	_ = s.execConn.Close()
	if err == nil {
		deadline := time.Now().Add(drainWait)
		for lg.tailCount.Load() < int64(lg.n) && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	ss.memB = readMem()
	ss.cpu = processCPU() - cpu0
	ss.phase.Stop()
	ss.calm = ss.phase.calm(t0, now())
	for _, st := range s.broker.Stats() {
		ss.dropped += st.Dropped
	}
	s.closeClients()
	tailWG.Wait()
	_ = s.mbox.Close()
	_ = s.tailSrv.Close()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if ss.col != nil {
		stopPoll()
		ss.col.collect()
		ss.codec = ss.col.attribute(s.probe.traceID, lg.n)
	}

	// The store must hold exactly the requests sent, each matching its
	// command and reply.
	if err := s.db.Flush(); err != nil {
		s.close()
		return nil, err
	}
	dbLen := s.db.Len()
	ss.dbSegs = s.db.Segments()
	scanBad, err := offHeap[bool](lg.n)
	if err != nil {
		s.close()
		return nil, err
	}
	scanStart := now()
	scanned := verifyStore(s.db.Scan(tracedb.Query{}), lg, scanBad)
	ss.scanNs = now() - scanStart
	s.close()
	ss.dbBytes = dirBytes(s.dir)
	_ = os.RemoveAll(s.dir)

	ref, err := referenceReplay(cfg.seed, lg)
	if err != nil {
		return nil, err
	}
	var bad int64
	for i := 0; i < lg.n; i++ {
		if lg.recv[i] == 0 || lg.replyHash[i] != ref[i] || int64(i) >= lg.tailCount.Load() ||
			lg.tailBad[i] || lg.tailHash[i] != ref[i] || scanBad[i] {
			bad++
		}
	}
	rep.attempted += int64(lg.n)
	rep.fail(bad, "%d of %d requests missing a reply, tail record or stored record, or differing from the reference replay", bad, lg.n)
	rep.fail(lg.badReplies, "replies with unexpected IDs")
	rep.fail(lg.tailDisorder, "tail events out of sequence")
	rep.fail(int64(lg.tailDropped+ss.dropped), "tail events dropped")
	rep.fail(abs64(int64(dbLen-lg.n)), "tracedb holds %d records for %d requests", dbLen, lg.n)
	rep.fail(abs64(int64(scanned-lg.n)), "scan returned %d records for %d requests", scanned, lg.n)
	var d, r uint64 = 14695981039346656037, 14695981039346656037
	for i := 0; i < lg.n; i++ {
		d, r = digestChain(d, lg.replyHash[i]), digestChain(r, ref[i])
	}
	rep.notes["reply_digest"] = fmt.Sprintf("%016x", d)
	rep.notes["reference_digest"] = fmt.Sprintf("%016x", r)
	return ss, nil
}

// recordIter is the part of *tracedb.Iterator that verifyStore reads.
type recordIter interface {
	Next() bool
	Record() store.Record
	Err() error
	Close()
}

// verifyStore reads a full scan of the store, which must yield sequence
// numbers 0..lg.n-1 once each and in order, and marks each position whose
// record is missing, out of place, or does not match its request and
// reply; it returns how many records the scan produced.
func verifyStore(it recordIter, lg *runlog, bad []bool) int {
	defer it.Close()
	n := 0
	for ; it.Next(); n++ {
		r := it.Record()
		if n >= lg.n {
			continue
		}
		if r.Seq != uint64(n) {
			bad[n] = true
			continue
		}
		want := &lg.reqs[n%len(lg.reqs)]
		bad[n] = r.Device != want.Device || r.Name != want.Name || !slices.Equal(r.Args, want.Args) ||
			outcomeHash(r.Response, r.Exception) != lg.replyHash[n]
	}
	if it.Err() != nil {
		for i := n; i < lg.n; i++ {
			bad[i] = true
		}
	}
	return n
}

// referenceReplay re-executes the first lg.n requests through an
// in-process Core over freshly seeded devices on the same virtual clock
// start, returning each reply's outcome hash.
func referenceReplay(seed uint64, lg *runlog) ([]uint64, error) {
	clock := simclock.NewVirtual(clockStart)
	core := middlebox.NewCore(clock, nil)
	for _, d := range devices(clock, seed) {
		core.Register(d)
	}
	out, err := offHeap[uint64](lg.n)
	if err != nil {
		return nil, err
	}
	for i := range out {
		rep := core.Handle(lg.request(i))
		out[i] = outcomeHash(rep.Value, rep.Error)
	}
	return out, nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

package tracedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rad/internal/parallel"
	"rad/internal/simclock"
	"rad/internal/store"
)

// Options tunes a DB. The zero value selects the defaults.
type Options struct {
	// SegmentBytes is the size threshold at which the active segment is
	// rotated; a block never spans segments, so a segment may exceed the
	// threshold by at most one block. It also caps how much source payload
	// one compaction step merges into a single output segment. Defaults to
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Clock is the time source for observability timings (recovery,
	// append, and flush latency histograms — see Observe) and for the
	// retention age horizon. It never affects the append path. Defaults to
	// the real clock; campaigns under a virtual clock pass theirs so the
	// timing metrics and retention horizon stay deterministic.
	Clock simclock.Clock
	// Lifecycle configures background compaction and retention; the zero
	// value keeps the store append-only.
	Lifecycle LifecycleOptions
}

// DefaultSegmentBytes is the default segment rotation threshold.
const DefaultSegmentBytes = 4 << 20

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("tracedb: database is closed")

// DB is an embedded, persistent trace store. It implements store.Sink and
// store.BatchSink, assigning sequence numbers exactly like MemStore, so it
// drops in as the middlebox's primary sink. One writer and any number of
// concurrent readers are safe; readers observe a consistent snapshot taken
// at Scan/Collect time (committed blocks plus the staged per-record
// appends). The lifecycle engine (Compact, Retain, and the background loop
// armed by Options.Lifecycle.Interval) rewrites and retires segments
// concurrently with both.
type DB struct {
	dir  string
	opts Options

	mu       sync.RWMutex
	segs     []*segment
	retired  []*segment     // retired but still pinned by in-flight snapshots
	pending  []store.Record // staged per-record appends, not yet in a block
	encBuf   []byte         // reusable payload encode buffer (writer-only)
	nextSeq  uint64
	seqFloor uint64 // persisted lower bound for nextSeq (see Retain)
	closed   bool
	onCommit func(recs []store.Record)

	// Lifecycle engine state: lcMu single-flights Compact/Retain, lcStats
	// are the always-on counters, lcStop/lcDone bracket the background
	// loop.
	lcMu    sync.Mutex
	lcStats lifecycleStats
	lcStop  chan struct{}
	lcDone  chan struct{}
	lcOnce  sync.Once

	// Observability (see obs.go). obs is nil until Observe; the write path
	// pays one nil check per call when unobserved. recovery is the wall
	// (or virtual) time Open spent CRC-verifying the existing segments.
	obs      *dbObs
	clock    simclock.Clock
	recovery time.Duration
}

var (
	_ store.Sink      = (*DB)(nil)
	_ store.BatchSink = (*DB)(nil)
	_ store.Notifier  = (*DB)(nil)
)

// segFile is one segment file discovered during recovery.
type segFile struct {
	name      string
	lo, hi    int
	compacted bool
}

// recoverDirEntries lists the segment files of dir in id order, deleting
// compaction debris first: .tmp outputs whose rename never happened, and
// segments wholly covered by a compacted segment (the crash window between
// the compactor's rename and the source unlink).
func recoverDirEntries(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracedb: %w", err)
	}
	var files []segFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A half-written compaction output: its sources are intact, so
			// the temp is pure debris.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if lo, hi, compacted, ok := parseSegmentName(name); ok {
			files = append(files, segFile{name: name, lo: lo, hi: hi, compacted: compacted})
		}
	}
	// Discard files covered by a (necessarily complete — it was renamed
	// into place) compacted segment. A plain segment with the same id range
	// as a compacted one is the pre-compaction original.
	covered := func(a, b segFile) bool {
		if a.name == b.name || !b.compacted {
			return false
		}
		if b.lo <= a.lo && a.hi <= b.hi {
			return a.lo != b.lo || a.hi != b.hi || !a.compacted
		}
		return false
	}
	kept := files[:0]
	for _, a := range files {
		superseded := false
		for _, b := range files {
			if covered(a, b) {
				superseded = true
				break
			}
		}
		if superseded {
			os.Remove(filepath.Join(dir, a.name))
			continue
		}
		kept = append(kept, a)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].lo < kept[j].lo })
	return kept, nil
}

// seqFloorFile is the sidecar recording the lowest sequence number the next
// Open may assign: retention writes it before retiring segments so that
// dropping every record-bearing segment can never rewind the numbering.
const seqFloorFile = "seqfloor"

// loadSeqFloor reads the persisted sequence floor; a missing or unreadable
// file means no retention has ever retired records (floor zero).
func loadSeqFloor(dir string) uint64 {
	b, err := os.ReadFile(filepath.Join(dir, seqFloorFile))
	if err != nil {
		return 0
	}
	floor, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return floor
}

// persistSeqFloor durably installs a new sequence floor (tmp + fsync +
// rename + directory sync, like a compacted segment). Retention calls it
// before any victim segment is dropped, so a crash at any point leaves
// either the old floor with the victims intact or the new floor — never a
// store that re-issues retired sequence numbers.
func persistSeqFloor(dir string, floor uint64) error {
	path := filepath.Join(dir, seqFloorFile)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("tracedb: create seq floor: %w", err)
	}
	if _, err = fmt.Fprintf(f, "%d\n", floor); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracedb: write seq floor: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracedb: install seq floor: %w", err)
	}
	syncDir(dir)
	return nil
}

// Open opens (or creates) the store in dir, recovering every segment:
// half-finished compaction temps are discarded, segments superseded by a
// completed compaction are dropped, blocks are CRC-verified in parallel
// across segments, a torn tail is truncated, and sequence numbering resumes
// after the highest recovered record — never below the floor persisted by
// retention. When Options.Lifecycle.Interval is set, the background
// maintenance loop starts immediately.
func Open(dir string, opts Options) (*DB, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Real{}
	}
	recoverStart := opts.Clock.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracedb: %w", err)
	}
	files, err := recoverDirEntries(dir)
	if err != nil {
		return nil, err
	}

	segs, err := parallel.Map(files, 0, func(_ int, sf segFile) (*segment, error) {
		return openSegment(filepath.Join(dir, sf.name), sf.lo, sf.hi, sf.compacted)
	})
	if err != nil {
		for _, s := range segs {
			if s != nil {
				s.f.Close()
			}
		}
		return nil, err
	}

	db := &DB{dir: dir, opts: opts, segs: segs, clock: opts.Clock}
	for _, s := range segs {
		if s.index.count > 0 && s.index.maxSeq+1 > db.nextSeq {
			db.nextSeq = s.index.maxSeq + 1
		}
	}
	// Retention may have retired every record-bearing segment; the floor it
	// persisted keeps sequence numbering monotonic across that plus a
	// reopen (a regression would break every seq-deduplicating consumer).
	db.seqFloor = loadSeqFloor(dir)
	if db.seqFloor > db.nextSeq {
		db.nextSeq = db.seqFloor
	}
	if len(db.segs) == 0 {
		s, err := createSegment(dir, 0)
		if err != nil {
			return nil, err
		}
		db.segs = append(db.segs, s)
	}
	db.recovery = opts.Clock.Now().Sub(recoverStart)
	if opts.Lifecycle.Interval > 0 {
		db.lcStop = make(chan struct{})
		db.lcDone = make(chan struct{})
		go db.lifecycleLoop()
	}
	return db, nil
}

// Dir returns the store's directory.
func (db *DB) Dir() string { return db.dir }

// SetOnCommit installs the commit hook (see store.Notifier): it fires
// exactly once per record, in sequence order, under the write lock, as soon
// as the record is visible to readers (staged appends are already visible to
// Scan/Collect, so the hook fires at staging time, not at block flush).
func (db *DB) SetOnCommit(fn func(recs []store.Record)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onCommit = fn
}

// Append assigns the next sequence number and stages the record; staged
// records are flushed as one block every store.DefaultBatchSize appends,
// on Flush, or on Close (AppendBatch always lands as its own block). Staged records are already visible to readers.
func (db *DB) Append(r store.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if o := db.obs; o != nil {
		start := db.clock.Now()
		err := db.appendLocked(r)
		o.appendRecord.Observe(db.clock.Now().Sub(start))
		return err
	}
	return db.appendLocked(r)
}

func (db *DB) appendLocked(r store.Record) error {
	if db.closed {
		return ErrClosed
	}
	r.Seq = db.nextSeq
	db.nextSeq++
	db.pending = append(db.pending, r)
	if db.onCommit != nil {
		db.onCommit(db.pending[len(db.pending)-1:])
	}
	if len(db.pending) >= store.DefaultBatchSize {
		return db.flushLocked()
	}
	return nil
}

// AppendBatch assigns consecutive sequence numbers in slice order and writes
// the whole batch as one block — the store.Batcher flush boundary maps 1:1
// onto on-disk blocks. Any staged per-record appends are flushed first so
// sequence order and storage order agree.
func (db *DB) AppendBatch(recs []store.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if o := db.obs; o != nil {
		start := db.clock.Now()
		err := db.appendBatchLocked(recs)
		o.appendBatch.Observe(db.clock.Now().Sub(start))
		return err
	}
	return db.appendBatchLocked(recs)
}

func (db *DB) appendBatchLocked(recs []store.Record) error {
	if db.closed {
		return ErrClosed
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	block := make([]store.Record, len(recs))
	copy(block, recs)
	for i := range block {
		block[i].Seq = db.nextSeq
		db.nextSeq++
	}
	if err := db.appendBlockLocked(block); err != nil {
		return err
	}
	if db.onCommit != nil {
		db.onCommit(block)
	}
	return nil
}

// Flush writes any staged per-record appends to disk as one block.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

// Sync flushes staged records and fsyncs every segment file.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	for _, s := range db.segs {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("tracedb: sync %s: %w", s.path, err)
		}
	}
	return nil
}

// Close stops the lifecycle loop, flushes staged records, syncs, and closes
// every segment file — including retired segments still pinned by in-flight
// snapshots, whose iterators will surface read errors rather than holding
// the files open. Further operations return ErrClosed.
func (db *DB) Close() error {
	db.stopLifecycle()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	first := db.flushLocked()
	for _, s := range db.segs {
		if err := s.f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("tracedb: sync %s: %w", s.path, err)
		}
		if err := s.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("tracedb: close %s: %w", s.path, err)
		}
	}
	for _, s := range db.retired {
		// Force the cleanup a drained release would have done; racing
		// releases double-close/double-remove harmlessly.
		s.f.Close()
		os.Remove(s.path)
	}
	db.retired = nil
	db.closed = true
	return first
}

// flushLocked writes the staged records as one block. On success the staging
// buffer is reset; on failure it is kept so no acknowledged record is
// silently dropped before the caller sees the error.
func (db *DB) flushLocked() error {
	if len(db.pending) == 0 {
		return nil
	}
	var start time.Time
	if db.obs != nil {
		start = db.clock.Now()
	}
	if err := db.appendBlockLocked(db.pending); err != nil {
		return err
	}
	if o := db.obs; o != nil {
		o.flush.Observe(db.clock.Now().Sub(start))
	}
	db.pending = db.pending[:0]
	return nil
}

// appendBlockLocked writes recs (sequence numbers already assigned) as one
// block, rotating the active segment at the size threshold and splitting
// batches whose payload would exceed the soft block cap.
func (db *DB) appendBlockLocked(recs []store.Record) error {
	start, sz := 0, 0
	for i := range recs {
		rs := recordSizeEstimate(recs[i])
		if sz+rs > targetBlockBytes && i > start {
			if err := db.writeOneBlockLocked(recs[start:i]); err != nil {
				return err
			}
			start, sz = i, 0
		}
		sz += rs
	}
	return db.writeOneBlockLocked(recs[start:])
}

func (db *DB) writeOneBlockLocked(recs []store.Record) error {
	if len(recs) == 0 {
		return nil
	}
	active := db.segs[len(db.segs)-1]
	if active.size >= db.opts.SegmentBytes && active.index.count > 0 {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("tracedb: sync rotated segment: %w", err)
		}
		next, err := createSegment(db.dir, active.hi+1)
		if err != nil {
			return err
		}
		db.segs = append(db.segs, next)
		active = next
	}
	db.encBuf = encodePayload(db.encBuf[:0], recs)
	if err := active.appendBlock(db.encBuf, recs); err != nil {
		return err
	}
	if o := db.obs; o != nil {
		o.blocksWritten.Add(1)
		o.bytesWritten.Add(uint64(blockHeaderSize + len(db.encBuf)))
	}
	return nil
}

// Len returns the number of records in the store, staged ones included.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := len(db.pending)
	for _, s := range db.segs {
		n += s.index.count
	}
	return n
}

// Segments returns the number of on-disk segment files.
func (db *DB) Segments() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.segs)
}

// NextSeq returns the sequence number the next appended record will be
// assigned — one past the newest record, the exclusive upper bound of what
// a resume scan can replay.
func (db *DB) NextSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextSeq
}

// SeqFloor returns the persisted retention floor: every record with a
// lower sequence number has been (or may have been) discarded by Retain,
// so a resume from below it cannot be honored exactly (see
// wire.EventResumeGap).
func (db *DB) SeqFloor() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seqFloor
}

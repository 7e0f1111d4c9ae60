package tracedb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rad/internal/store"
)

// testRecord builds a deterministic synthetic record; i spreads records
// across devices, command types, runs, and a monotonically increasing
// timeline.
func testRecord(i int) store.Record {
	devices := []string{"C9", "UR3e", "IKA", "Tecan", "Quantos"}
	names := []string{"MVNG", "ARM", "Q", "IN_PV_4", "start_dosing", "MOVE"}
	r := store.Record{
		Time:      time.Unix(1_700_000_000+int64(i)*3, int64(i%7)*1000),
		Device:    devices[i%len(devices)],
		Name:      names[i%len(names)],
		Procedure: store.UnknownProcedure,
		Mode:      "REMOTE",
	}
	r.EndTime = r.Time.Add(5 * time.Millisecond)
	if i%4 == 0 {
		r.Args = []string{fmt.Sprint(i), "fast"}
	}
	if i%11 == 0 {
		r.Run = fmt.Sprintf("run-%d", i%3)
		r.Procedure = "P1"
	}
	if i%53 == 0 {
		r.Exception = "collision fault"
	} else {
		r.Response = "ok"
	}
	return r
}

func testRecords(n int) []store.Record {
	out := make([]store.Record, n)
	for i := range out {
		out[i] = testRecord(i)
	}
	return out
}

// sameRecords compares record slices field-by-field, comparing times by
// instant (the decoder restores wall-clock nanos, not locations).
func sameRecords(t *testing.T, got, want []store.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq ||
			g.Time.UnixNano() != w.Time.UnixNano() ||
			g.EndTime.UnixNano() != w.EndTime.UnixNano() ||
			g.Device != w.Device || g.Name != w.Name ||
			!reflect.DeepEqual(g.Args, w.Args) ||
			g.Response != w.Response || g.Exception != w.Exception ||
			g.Procedure != w.Procedure || g.Run != w.Run || g.Mode != w.Mode {
			t.Fatalf("record %d mismatch:\n got  %+v\n want %+v", i, g, w)
		}
	}
}

// filterSeq applies MemStore-style brute force to the expected record set.
func filterSeq(recs []store.Record, pred func(store.Record) bool) []store.Record {
	var out []store.Record
	for _, r := range recs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// ingest appends recs in blocks of batch via AppendBatch.
func ingest(t *testing.T, db *DB, recs []store.Record, batch int) {
	t.Helper()
	for start := 0; start < len(recs); start += batch {
		end := start + batch
		if end > len(recs) {
			end = len(recs)
		}
		if err := db.AppendBatch(recs[start:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// expected returns the input records with the sequence numbers the DB
// assigns on ingestion.
func expected(recs []store.Record) []store.Record {
	out := make([]store.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}

func TestRoundTripRotationAndQueries(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment threshold forces many rotations.
	db, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(2000)
	ingest(t, db, recs, 64)
	want := expected(recs)

	if db.Segments() < 3 {
		t.Errorf("only %d segments, rotation never triggered", db.Segments())
	}
	if db.Len() != len(recs) {
		t.Errorf("Len = %d, want %d", db.Len(), len(recs))
	}

	check := func(db *DB) {
		t.Helper()
		got, err := db.Collect(Query{})
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, got, want)

		queries := []Query{
			{Device: "C9"},
			{Device: "Quantos"},
			{Key: "Tecan.Q"},
			{Run: "run-0"},
			{Procedure: "P1"},
			{From: want[500].Time, To: want[1500].Time},
			{From: want[500].Time, To: want[1500].Time, Device: "IKA"},
			{Device: "nope"},
			{Key: "C9.Q"}, // device exists, key never occurs together
		}
		for _, q := range queries {
			got, err := db.Collect(q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			sameRecords(t, got, filterSeq(want, q.Match))

			// The iterator must agree with Collect.
			var scanned []store.Record
			it := db.Scan(q)
			for it.Next() {
				scanned = append(scanned, it.Record())
			}
			if it.Err() != nil {
				t.Fatalf("%+v: %v", q, it.Err())
			}
			sameRecords(t, scanned, got)
		}

		wantCmd := make(map[string]int)
		wantDev := make(map[string]int)
		for _, r := range want {
			wantCmd[r.Key()]++
			wantDev[r.Device]++
		}
		if got := db.CountByCommand(); !reflect.DeepEqual(got, wantCmd) {
			t.Errorf("CountByCommand = %v, want %v", got, wantCmd)
		}
		if got := db.CountByDevice(); !reflect.DeepEqual(got, wantDev) {
			t.Errorf("CountByDevice = %v, want %v", got, wantDev)
		}
		if got := db.Runs(); !reflect.DeepEqual(got, []string{"run-0", "run-1", "run-2"}) {
			t.Errorf("Runs = %v", got)
		}
		first, last, ok := db.Span()
		if !ok || first.UnixNano() != want[0].Time.UnixNano() ||
			last.UnixNano() != want[len(want)-1].Time.UnixNano() {
			t.Errorf("Span = %v..%v ok=%t", first, last, ok)
		}
	}

	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything must survive a reopen, answered from the recovered index.
	db2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2)
}

func TestStagedAppendsVisibleAndFlushed(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	recs := testRecords(7)
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := expected(recs)

	// Below the staging threshold: nothing committed, but readers see it.
	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want)
	if n := db.Len(); n != 7 {
		t.Errorf("Len = %d, want 7", n)
	}
	got, err = db.Collect(Query{Device: want[1].Device})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, filterSeq(want, Query{Device: want[1].Device}.Match))

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want)
}

func TestSequenceResumeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, db, testRecords(10), 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.AppendBatch(testRecords(3)); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 13 {
		t.Fatalf("got %d records, want 13", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d — numbering did not resume", i, r.Seq)
		}
	}
}

func TestClosedDBRejectsOperations(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(testRecord(0)); err != ErrClosed {
		t.Errorf("Append on closed DB: %v, want ErrClosed", err)
	}
	if err := db.AppendBatch(testRecords(2)); err != ErrClosed {
		t.Errorf("AppendBatch on closed DB: %v, want ErrClosed", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Errorf("Flush on closed DB: %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestConcurrentReadersDuringIngest exercises the reader/writer contract
// under the race detector: while one writer appends batches, concurrent
// readers must always observe a consistent prefix — records 0..k-1 with
// contiguous sequence numbers.
func TestConcurrentReadersDuringIngest(t *testing.T) {
	db, err := Open(t.TempDir(), Options{SegmentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const total, batch = 3000, 50
	recs := testRecords(total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for start := 0; start < total; start += batch {
			if err := db.AppendBatch(recs[start : start+batch]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var got []store.Record
				var err error
				if w%2 == 0 {
					got, err = db.Collect(Query{})
				} else {
					it := db.Scan(Query{Device: "C9"})
					for it.Next() {
						got = append(got, it.Record())
					}
					err = it.Err()
				}
				if err != nil {
					t.Error(err)
					return
				}
				last := int64(-1)
				for _, r := range got {
					if int64(r.Seq) <= last {
						t.Errorf("non-monotonic seq %d after %d", r.Seq, last)
						return
					}
					last = int64(r.Seq)
				}
			}
		}(w)
	}
	<-done
	wg.Wait()

	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, expected(recs))
}

// TestBatcherFlushBoundary checks the intended producer wiring: a
// store.Batcher in front of the DB lands each flush as one block.
func TestBatcherFlushBoundary(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := store.NewBatcher(db, 32)
	recs := testRecords(100)
	for _, r := range recs {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, expected(recs))
	// 100 records at batch size 32 = 4 flushes = 4 blocks.
	if nb := len(db.segs[0].index.blocks); nb != 4 {
		t.Errorf("%d blocks on disk, want 4 (one per Batcher flush)", nb)
	}
}

// TestIndexedScanReadsFewerBlocks verifies the posting lists actually prune
// block reads — the structural property behind BenchmarkTraceDBScanIndexed.
func TestIndexedScanReadsFewerBlocks(t *testing.T) {
	db, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Confine a rare command type to a narrow stripe of blocks.
	recs := testRecords(4096)
	for i := 1000; i < 1064; i++ {
		recs[i].Device = "Quantos"
		recs[i].Name = "tare"
	}
	ingest(t, db, recs, 64)

	all := 0
	for _, s := range db.segs {
		all += len(s.index.blocks)
	}
	plans, _ := db.plan(Query{Key: "Quantos.tare"})
	cand := 0
	for _, p := range plans {
		cand += len(p.blocks)
	}
	if cand == 0 || cand*4 > all {
		t.Errorf("indexed scan selects %d of %d blocks; want a small fraction", cand, all)
	}
	got, err := db.Collect(Query{Key: "Quantos.tare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Errorf("indexed scan returned %d records, want 64", len(got))
	}
}

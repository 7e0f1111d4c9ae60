package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rad"
)

// buildRecords returns the small hand-made campaign the CLI tests query.
func buildRecords() []rad.TraceRecord {
	base := time.Date(2022, 3, 1, 9, 0, 0, 0, time.UTC)
	var recs []rad.TraceRecord
	for i := 0; i < 40; i++ {
		r := rad.TraceRecord{
			Time: base.Add(time.Duration(i) * time.Minute), Device: "C9", Name: "MVNG",
			Procedure: rad.UnknownProcedure, Mode: "REMOTE", Response: "ok",
		}
		r.EndTime = r.Time.Add(3 * time.Millisecond)
		if i%4 == 0 {
			r.Device, r.Name = "Tecan", "Q"
		}
		if i >= 30 {
			r.Run, r.Procedure = "run-7", rad.ProcedureP1
		}
		recs = append(recs, r)
	}
	return recs
}

// buildStore persists the campaign and returns its directory.
func buildStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := rad.OpenTraceDB(dir, rad.TraceDBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendBatch(buildRecords()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestQueryInfoCountRunsScan(t *testing.T) {
	dir := buildStore(t)

	var out bytes.Buffer
	if err := run([]string{"-store", dir}, &out); err != nil {
		t.Fatal(err)
	}
	info := out.String()
	for _, want := range []string{"records:  40", "segments: 1", "runs:     1 supervised"} {
		if !strings.Contains(info, want) {
			t.Errorf("info output missing %q:\n%s", want, info)
		}
	}

	out.Reset()
	if err := run([]string{"-store", dir, "-mode", "count", "-by", "command"}, &out); err != nil {
		t.Fatal(err)
	}
	counts := out.String()
	if !strings.Contains(counts, "30  C9.MVNG") || !strings.Contains(counts, "10  Tecan.Q") {
		t.Errorf("count output wrong:\n%s", counts)
	}

	out.Reset()
	if err := run([]string{"-store", dir, "-mode", "runs"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "run-7" {
		t.Errorf("runs output = %q", out.String())
	}

	// Per-run extraction (the RQ1/Table I shape) as JSONL.
	out.Reset()
	if err := run([]string{"-store", dir, "-mode", "scan", "-run", "run-7"}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := rad.ReadTraceJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("run-7 scan returned %d records, want 10", len(got))
	}
	for _, r := range got {
		if r.Run != "run-7" {
			t.Errorf("record %d leaked into run scan: %+v", r.Seq, r)
		}
	}

	// Time-windowed CSV scan with a limit.
	out.Reset()
	if err := run([]string{
		"-store", dir, "-mode", "scan", "-format", "csv",
		"-from", "2022-03-01T09:10:00Z", "-to", "2022-03-01T09:20:00Z", "-limit", "5",
	}, &out); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := rad.ReadTraceCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != 5 {
		t.Fatalf("windowed scan returned %d records, want 5 (limit)", len(fromCSV))
	}
}

// TestQueryScanGoldenFormats pins the scan export bytes — header and
// column order for CSV, field order and encoding for JSONL — so a
// compaction-era record rewrite (or any future codec change) can never
// reorder fields silently: downstream IDS pipelines parse these exports
// positionally. The store is built twice, once as ingested and once
// compacted, and both must render the identical golden bytes.
func TestQueryScanGoldenFormats(t *testing.T) {
	const goldenCSV = "seq,time,end_time,device,name,args,response,exception,procedure,run,mode\n" +
		"0,2022-03-01T09:00:00Z,2022-03-01T09:00:00.003Z,Tecan,Q,,ok,,unknown procedure,,REMOTE\n" +
		"1,2022-03-01T09:01:00Z,2022-03-01T09:01:00.003Z,C9,MVNG,,ok,,unknown procedure,,REMOTE\n"
	const goldenJSONL = `{"seq":0,"time":"2022-03-01T09:00:00Z","endTime":"2022-03-01T09:00:00.003Z",` +
		`"device":"Tecan","name":"Q","response":"ok","procedure":"unknown procedure","mode":"REMOTE"}` + "\n" +
		`{"seq":1,"time":"2022-03-01T09:01:00Z","endTime":"2022-03-01T09:01:00.003Z",` +
		`"device":"C9","name":"MVNG","response":"ok","procedure":"unknown procedure","mode":"REMOTE"}` + "\n"

	// Chatty ingestion over tiny segments: the store is left as small-flush
	// debris so the compaction leg below has real sources to rewrite.
	dir := t.TempDir()
	opts := rad.TraceDBOptions{SegmentBytes: 1 << 10}
	db, err := rad.OpenTraceDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := buildRecords()
	for i := 0; i < len(recs); i += 3 {
		j := min(i+3, len(recs))
		if err := db.AppendBatch(recs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(label string) {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-store", dir, "-mode", "scan", "-format", "csv", "-limit", "2"}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != goldenCSV {
			t.Errorf("%s csv scan output changed:\n got: %q\nwant: %q", label, out.String(), goldenCSV)
		}
		out.Reset()
		if err := run([]string{"-store", dir, "-mode", "scan", "-format", "jsonl", "-limit", "2"}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != goldenJSONL {
			t.Errorf("%s jsonl scan output changed:\n got: %q\nwant: %q", label, out.String(), goldenJSONL)
		}
	}
	check("ingested")

	// Rewrite the store through the compactor and require byte-identical
	// exports from the rebuilt blocks.
	db, err = rad.OpenTraceDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := db.Compact()
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	if stats.Compactions == 0 {
		db.Close()
		t.Fatal("compaction found nothing to rewrite; golden check would be vacuous")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

func TestQueryCountByRunAndProcedure(t *testing.T) {
	dir := buildStore(t)
	var out bytes.Buffer
	if err := run([]string{"-store", dir, "-mode", "count", "-by", "run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10  run-7") {
		t.Errorf("count -by run wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-store", dir, "-mode", "count", "-by", "procedure"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "30  "+rad.UnknownProcedure) ||
		!strings.Contains(out.String(), "10  "+rad.ProcedureP1) {
		t.Errorf("count -by procedure wrong:\n%s", out.String())
	}
}

// TestQueryCountByIndexedGroupingsHonoursFilters: command and device
// counts apply the filters like every other grouping instead of reporting
// whole-store index totals.
func TestQueryCountByIndexedGroupingsHonoursFilters(t *testing.T) {
	dir := buildStore(t)
	for _, tc := range []struct {
		args []string
		want string // exact output
	}{
		{[]string{"-by", "command", "-run", "no-such-run"}, ""},
		{[]string{"-by", "command", "-run", "run-7"}, "       8  C9.MVNG\n       2  Tecan.Q\n"},
		{[]string{"-by", "device", "-device", "Tecan"}, "      10  Tecan\n"},
		{[]string{"-by", "device", "-from", "2022-03-01T09:30:00Z"}, "       8  C9\n       2  Tecan\n"},
		{[]string{"-by", "command"}, "      30  C9.MVNG\n      10  Tecan.Q\n"},
	} {
		var out bytes.Buffer
		args := append([]string{"-store", dir, "-mode", "count"}, tc.args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("%v: output\n%q\nwant\n%q", tc.args, out.String(), tc.want)
		}
	}
}

// TestQueryFollowTailsStream runs the -follow path against a live stream
// listener: the persisted store replays as a snapshot, then live commits
// keep arriving, all through the same scan formats.
func TestQueryFollowTailsStream(t *testing.T) {
	dir := buildStore(t)
	db, err := rad.OpenTraceDB(dir, rad.TraceDBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	broker := rad.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	srv := rad.NewStreamServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Keep committing fresh records so the tail has a live side to follow
	// past the 40-record snapshot.
	stopAppend := make(chan struct{})
	defer close(stopAppend)
	go func() {
		for {
			select {
			case <-stopAppend:
				return
			default:
			}
			_ = db.Append(rad.TraceRecord{Device: "C9", Name: "LIVE", Response: "ok"})
			time.Sleep(time.Millisecond)
		}
	}()

	var out bytes.Buffer
	if err := run([]string{"-follow", "-addr", addr, "-limit", "45"}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := rad.ReadTraceJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 45 {
		t.Fatalf("follow returned %d records, want 45", len(got))
	}
	// The first 40 are the snapshot in sequence order; the rest are live.
	for i := 0; i < 40; i++ {
		if got[i].Seq != uint64(i) {
			t.Fatalf("snapshot record %d has seq %d", i, got[i].Seq)
		}
	}
	for _, r := range got[40:] {
		if r.Name != "LIVE" || r.Seq < 40 {
			t.Errorf("live record out of place: %+v", r)
		}
	}

	// Server-side filter pushdown applies to both snapshot and live sides.
	out.Reset()
	if err := run([]string{"-follow", "-addr", addr, "-run", "run-7", "-limit", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	filtered, err := rad.ReadTraceJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 10 {
		t.Fatalf("filtered follow returned %d records, want 10", len(filtered))
	}
	for _, r := range filtered {
		if r.Run != "run-7" {
			t.Errorf("record leaked through run filter: %+v", r)
		}
	}
}

// TestQueryFollowRejectsTimeBounds: the tail protocol has no time bounds,
// so -from/-to with -follow are refused against a live listener instead of
// being silently dropped.
func TestQueryFollowRejectsTimeBounds(t *testing.T) {
	dir := buildStore(t)
	db, err := rad.OpenTraceDB(dir, rad.TraceDBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := rad.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	srv := rad.NewStreamServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, bound := range [][]string{
		{"-from", "not-a-time"},
		{"-from", "2022-03-01T09:30:00Z"},
		{"-to", "2022-03-01T09:30:00Z"},
	} {
		args := append([]string{"-follow", "-addr", addr, "-limit", "1"}, bound...)
		err := run(args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-follow") {
			t.Errorf("%v: err = %v, want a -follow refusal", bound, err)
		}
	}
}

func TestQueryRejectsBadFlags(t *testing.T) {
	dir := buildStore(t)
	for name, args := range map[string][]string{
		"no-store":       {"-mode", "info"},
		"follow-no-addr": {"-follow"},
		"bad-mode":       {"-store", dir, "-mode", "explode"},
		"bad-by":         {"-store", dir, "-mode", "count", "-by", "color"},
		"bad-format":     {"-store", dir, "-mode", "scan", "-format", "parquet"},
		"bad-from":       {"-store", dir, "-from", "yesterday"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: accepted %v", name, args)
		}
	}
}

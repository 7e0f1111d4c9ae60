package tracedb

import (
	"strings"
	"testing"
	"time"

	"rad/internal/obs"
	"rad/internal/simclock"
	"rad/internal/store"
)

// TestObsTracedbMetrics: the write path feeds the append/flush histograms
// and block totals, and the size gauges mirror the store's own accessors.
// The per-record appends cross the automatic flush once.
func TestObsTracedbMetrics(t *testing.T) {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	db, err := Open(t.TempDir(), Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := obs.NewRegistry()
	db.Observe(reg)

	base := time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC)
	const appends = store.DefaultBatchSize + 4
	for i := 0; i < appends; i++ {
		if err := db.Append(store.Record{Time: base, Device: "C9", Name: "MVNG"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AppendBatch([]store.Record{
		{Time: base, Device: "IKA", Name: "IN_PV_4"},
		{Time: base, Device: "IKA", Name: "IN_PV_4"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	hist := make(map[string]uint64)
	for _, h := range snap.Histograms {
		hist[h.Name+"/"+h.Labels["op"]] += h.Count
	}
	if hist["rad_tracedb_append_seconds/record"] != appends {
		t.Errorf("append record observations = %d, want %d", hist["rad_tracedb_append_seconds/record"], appends)
	}
	if hist["rad_tracedb_append_seconds/batch"] != 1 {
		t.Errorf("append batch observations = %d, want 1", hist["rad_tracedb_append_seconds/batch"])
	}
	if hist["rad_tracedb_flush_seconds/"] == 0 {
		t.Error("flush histogram never observed")
	}

	gauges := make(map[string]float64)
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if got, want := gauges["rad_tracedb_records"], float64(db.Len()); got != want {
		t.Errorf("records gauge = %v, want %v", got, want)
	}
	if got, want := gauges["rad_tracedb_segments"], float64(db.Segments()); got != want {
		t.Errorf("segments gauge = %v, want %v", got, want)
	}
	if gauges["rad_tracedb_bytes"] <= 0 || gauges["rad_tracedb_index_blocks"] <= 0 {
		t.Errorf("size gauges not populated: bytes=%v index_blocks=%v",
			gauges["rad_tracedb_bytes"], gauges["rad_tracedb_index_blocks"])
	}

	counters := make(map[string]uint64)
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	// One automatic flush, the staged tail flushed ahead of the batch, and
	// the batch itself.
	if got := counters["rad_tracedb_blocks_written_total"]; got != 3 {
		t.Errorf("blocks written = %d, want 3", got)
	}
	if counters["rad_tracedb_bytes_written_total"] == 0 {
		t.Errorf("byte write total not populated: %v", counters)
	}

	// The exposition names every tracedb family (the CLI's /metrics
	// coverage check relies on this rendering).
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"rad_tracedb_append_seconds_bucket",
		"rad_tracedb_recovery_seconds",
		"rad_tracedb_pending_records",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestObsTracedbUnobservedPathUnchanged: a DB without Observe behaves
// identically (guard against the refactor of Append into appendLocked).
func TestObsTracedbUnobservedPathUnchanged(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 5 {
		t.Fatalf("Len = %d, want 5", db.Len())
	}
	if db.Recovery() < 0 {
		t.Fatal("negative recovery duration")
	}
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"rad/internal/middlebox"
	"rad/internal/store"
	"rad/internal/wire"
)

func testConfig(t *testing.T, seed uint64, seconds float64) config {
	t.Helper()
	return config{seed: seed, seconds: seconds, work: t.TempDir(), out: t.TempDir(), setups: 1}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables the binary
// prints in step with the contract in BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: binary reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: binary %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// Clean runs pass every gate at the reference seed and at a second one,
// untraced and traced.
func TestServingCleanRunsPass(t *testing.T) {
	for _, seed := range []uint64{11, 12} {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, seed, 0.5)
			cfg.trace = trace
			rep, err := runLabReplay(cfg)
			if err != nil {
				t.Fatalf("seed %d trace %v: %v", seed, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("seed %d trace %v: %d of %d failed", seed, trace, rep.failed, rep.attempted)
			}
			if trace && rep.metrics["span.evicted"] != 0 {
				t.Errorf("seed %d: %v spans evicted before collection", seed, rep.metrics["span.evicted"])
			}
		}
	}
}

type corruptHandler struct {
	next middlebox.Handler
	id   uint64
}

func (h corruptHandler) Handle(req wire.Request) wire.Reply {
	rep := h.next.Handle(req)
	if req.ID == h.id {
		rep.Value += "!"
	}
	return rep
}

func TestServingCorruptReplyFails(t *testing.T) {
	cfg := testConfig(t, 11, 0.3)
	cfg.hooks.handler = func(h middlebox.Handler) middlebox.Handler { return corruptHandler{next: h, id: 1500} }
	rep, err := runLabReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("a corrupted reply went unnoticed (%d attempted)", rep.attempted)
	}
}

// corruptSink renames one record on its way into the store; the tail and
// the stored copy then disagree with the command that was sent.
type corruptSink struct {
	next  store.Sink
	n, at int
}

func (s *corruptSink) Append(r store.Record) error {
	s.n++
	if s.n == s.at {
		r.Name += "-corrupt"
	}
	return s.next.Append(r)
}

func (s *corruptSink) SetOnCommit(fn func([]store.Record)) { s.next.(store.Notifier).SetOnCommit(fn) }

func TestServingCorruptRecordFails(t *testing.T) {
	cfg := testConfig(t, 11, 0.3)
	cfg.hooks.sink = func(s store.Sink) store.Sink { return &corruptSink{next: s, at: 700} }
	rep, err := runLabReplay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("a corrupted record went unnoticed (%d attempted)", rep.attempted)
	}
}

// sliceIter yields records from a slice, standing in for a store scan.
type sliceIter struct {
	recs []store.Record
	i    int
}

func (it *sliceIter) Next() bool           { it.i++; return it.i <= len(it.recs) }
func (it *sliceIter) Record() store.Record { return it.recs[it.i-1] }
func (it *sliceIter) Err() error           { return nil }
func (it *sliceIter) Close()               {}

// A scan must yield every sequence number once and in order: a swapped,
// repeated or skipped record is caught even when the count is right.
func TestVerifyStoreCatchesOrder(t *testing.T) {
	reqs := []wire.Request{
		{Op: wire.OpExec, Device: "C9", Name: "MVNG", Args: []string{"1"}},
		{Op: wire.OpExec, Device: "C9", Name: "HOME"},
		{Op: wire.OpExec, Device: "IKA", Name: "STIR", Args: []string{"2"}},
		{Op: wire.OpExec, Device: "Tecan", Name: "PUMP"},
	}
	lg, err := newRunlog(reqs, len(reqs))
	if err != nil {
		t.Fatal(err)
	}
	lg.n = len(reqs)
	stored := make([]store.Record, len(reqs))
	for i, r := range reqs {
		lg.replyHash[i] = outcomeHash("ok", "")
		stored[i] = store.Record{Seq: uint64(i), Device: r.Device, Name: r.Name, Args: r.Args, Response: "ok"}
	}
	for _, tc := range []struct {
		name  string
		order []int
	}{
		{"in order", []int{0, 1, 2, 3}},
		{"swapped", []int{0, 2, 1, 3}},
		{"repeated", []int{0, 1, 1, 3}},
		{"skipped", []int{0, 1, 3}},
	} {
		var recs []store.Record
		for _, k := range tc.order {
			recs = append(recs, stored[k])
		}
		bad := make([]bool, lg.n)
		n := verifyStore(&sliceIter{recs: recs}, lg, bad)
		failed := n != lg.n || slices.Contains(bad, true)
		if failed != (tc.name != "in order") {
			t.Errorf("%s: scan of %v flagged=%v (n=%d, bad=%v)", tc.name, tc.order, failed, n, bad)
		}
	}
}

func TestCampaignCorruptRecordFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale campaign passes")
	}
	cfg := testConfig(t, 12, 0.1)
	cfg.hooks.records = func(recs []store.Record) { recs[len(recs)/2].Response += "!" }
	rep, err := runCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != rep.attempted || rep.attempted < 2 {
		t.Fatalf("%d of %d corrupted passes failed", rep.failed, rep.attempted)
	}
	cfg.hooks.records = nil
	if rep, err = runCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("clean campaign at seed 12: %d of %d passes failed", rep.failed, rep.attempted)
	}
}

func TestCalmLimit(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  float64
	}{
		{nil, calmSteal},
		{[]float64{0, 0.5, 9, 12, 20, 30}, calmSteal}, // a third is calm
		{[]float64{30, 4, 9, 2, 20, 12}, 4},           // the calmest two of six
		{[]float64{7}, 7},
	} {
		if got := calmLimit(tc.steal); got != tc.want {
			t.Errorf("calmLimit(%v) = %v, want %v", tc.steal, got, tc.want)
		}
	}
}

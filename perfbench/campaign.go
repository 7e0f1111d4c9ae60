package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"rad/internal/experiments"
	"rad/internal/rad"
	"rad/internal/store"
	"rad/internal/tracedb"
)

// campaignRef is what every pass is checked against: the digest of the
// generated records and the Table I rows of the in-memory dataset.
type campaignRef struct {
	digest [32]byte
	rows   []experiments.TableIRow
}

// stage names, in pipeline order, with the per-layer metric each feeds.
var campaignStages = []struct{ name, metric string }{
	{"generate", "rad.generate_s"},
	{"ingest", "tracedb.ingest_s"},
	{"reopen", "tracedb.open_s"},
	{"scan", "tracedb.scan_s"},
	{"fromrecords", "rad.fromrecords_s"},
	{"table1", "experiments.table1_s"},
	{"fig5b", "experiments.fig5b_s"},
	{"fig6", "experiments.fig6_s"},
}

// passTimes is one pass's stage durations (ns, in campaignStages order)
// and allocations (MB) of the stages that report them.
type passTimes struct {
	stage                                     [8]int64
	total                                     int64
	genAlloc, ingestAlloc, scanAlloc, t1Alloc float64
	bytesPerRecord                            float64
	heapMB                                    float64 // first pass only: live heap at its end
	segments                                  int
	from, to                                  int64 // benchmark clock
}

// runCampaign measures the offline pipeline: repeated full-scale passes
// for cfg.seconds (at least two), each checked against the reference.
func runCampaign(cfg config) (*report, error) {
	rep := newReport()
	var ref campaignRef
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		runtime.GC()
		t0 := now()
		ds, err := rad.Generate(rad.Config{Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		ref = campaignRef{digest: recordDigest(ds.Store.All()),
			rows: experiments.TableIPerplexityIDS(ds, experiments.TableIConfig{})}
		setups = append(setups, secs(now()-t0))
	}

	var passes []passTimes
	var traced, plain []float64 // pass seconds, for trace.overhead_pct
	start, cpu0, phase := now(), processCPU(), startPhase()
	for k := 0; k < 2 || secs(now()-start) < cfg.seconds; k++ {
		measureAlloc := cfg.trace && k%2 == 1
		runtime.GC()
		t0 := now()
		pt, ok, err := campaignPass(cfg, ref, k, measureAlloc)
		if err != nil {
			phase.Stop()
			return nil, err
		}
		pt.from, pt.to = t0, now()
		rep.attempted++
		if !ok {
			rep.fail(1, "pass %d: reloaded records or Table I differ from the reference", k)
		}
		passes = append(passes, pt)
		if measureAlloc {
			traced = append(traced, secs(pt.total))
		} else {
			plain = append(plain, secs(pt.total))
		}
	}
	phase.Stop()
	rep.notes["cpu_us_per_op"] = float64(processCPU()-cpu0) / 1e3 / float64(rad.TotalTraceObjects*len(passes))

	// Only the passes the hypervisor disturbed least count (see calmLimit).
	steal := make([]float64, len(passes))
	for i, p := range passes {
		steal[i] = phase.stealPct(p.from, p.to)
	}
	limit := calmLimit(steal)
	var totals []int64
	var sumS float64
	for i, p := range passes {
		if steal[i] <= limit {
			totals = append(totals, p.total)
		}
	}
	rep.notes["steal_filter"] = map[string]any{"calm_passes": len(totals), "passes": len(passes), "limit_pct": limit}
	for _, t := range totals {
		sumS += secs(t)
	}
	rep.notes["records_per_s"] = float64(rad.TotalTraceObjects*len(totals)) / sumS
	latencyMetrics(rep, totals)
	rep.metrics["setup_s"] = medianF(setups)
	rep.metrics["heap_live_mb"], rep.notes["rss_peak_mb"] = passes[0].heapMB, phase.rssPeak
	rep.notes["passes"] = len(passes)
	rep.notes["pass_s"] = append(plain, traced...)
	rep.notes["records_per_pass"] = rad.TotalTraceObjects
	rep.notes["reference_digest"] = fmt.Sprintf("%x", ref.digest[:8])
	if cfg.trace {
		campaignLayers(rep, passes, traced, plain)
	}
	return rep, nil
}

// campaignPass runs the pipeline once: generate, ingest through a
// 4096-record Batcher (radgen's path), reopen (recovery), full Collect,
// FromRecords, then Table I, Fig. 5b and Fig. 6 on the reloaded dataset.
func campaignPass(cfg config, ref campaignRef, k int, measureAlloc bool) (passTimes, bool, error) {
	var pt passTimes
	dir := filepath.Join(cfg.work, fmt.Sprintf("campaign-%d", k))
	defer os.RemoveAll(dir)
	var m0, m1 memSnap
	stage := func(i int, f func() error) error {
		if measureAlloc {
			m0 = readMem()
		}
		t0 := now()
		err := f()
		pt.stage[i] = now() - t0
		if measureAlloc {
			m1 = readMem()
		}
		return err
	}

	var ds, reloaded *rad.Dataset
	var generated, recs []store.Record
	var rows []experiments.TableIRow
	err := stage(0, func() (err error) {
		ds, err = rad.Generate(rad.Config{Seed: cfg.seed})
		return err
	})
	if err != nil {
		return pt, false, err
	}
	pt.genAlloc = allocMB(m0, m1)
	generated = ds.Store.All()
	err = stage(1, func() error { return ingest(dir, generated) })
	if err != nil {
		return pt, false, err
	}
	pt.ingestAlloc = allocMB(m0, m1)
	pt.bytesPerRecord = float64(dirBytes(dir)) / float64(len(generated))
	var db *tracedb.DB
	if err := stage(2, func() (err error) { db, err = tracedb.Open(dir, tracedb.Options{}); return err }); err != nil {
		return pt, false, err
	}
	pt.segments = db.Segments()
	err = stage(3, func() (err error) { recs, err = db.Collect(tracedb.Query{}); return err })
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return pt, false, err
	}
	pt.scanAlloc = allocMB(m0, m1)
	if cfg.hooks.records != nil {
		cfg.hooks.records(recs)
	}
	if err := stage(4, func() (err error) { reloaded, err = rad.FromRecords(recs); return err }); err != nil {
		return pt, false, err
	}
	_ = stage(5, func() error {
		rows = experiments.TableIPerplexityIDS(reloaded, experiments.TableIConfig{})
		return nil
	})
	pt.t1Alloc = allocMB(m0, m1)
	_ = stage(6, func() error { experiments.Fig5bTopNGrams(reloaded, nil, 10); return nil })
	_ = stage(7, func() error { experiments.Fig6SimilarityMatrix(reloaded); return nil })
	for _, d := range pt.stage {
		pt.total += d
	}
	if k == 0 {
		// Every dataset and record slice of the pass is still held.
		pt.heapMB = liveHeapMB()
		runtime.KeepAlive(ds)
		runtime.KeepAlive(reloaded)
	}
	ok := recordDigest(generated) == ref.digest && recordDigest(recs) == ref.digest &&
		reflect.DeepEqual(rows, ref.rows)
	return pt, ok, nil
}

// ingest writes records into a fresh tracedb the way radgen does.
func ingest(dir string, recs []store.Record) error {
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		return err
	}
	b := store.NewBatcher(db, 4096)
	for _, r := range recs {
		if err := b.Append(r); err != nil {
			db.Close()
			return err
		}
	}
	if err := b.Flush(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// recordDigest is a SHA-256 over every persisted field of every record,
// in order. Times are compared as instants (UnixNano), since a reload
// may change a timestamp's location but not its instant.
func recordDigest(recs []store.Record) [32]byte {
	h := sha256.New()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, r := range recs {
		num(r.Seq)
		num(uint64(r.Time.UnixNano()))
		num(uint64(r.EndTime.UnixNano()))
		str(r.Device)
		str(r.Name)
		num(uint64(len(r.Args)))
		for _, a := range r.Args {
			str(a)
		}
		str(r.Response)
		str(r.Exception)
		str(r.Procedure)
		str(r.Run)
		str(r.Mode)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// campaignLayers reports per-stage medians over all passes and the
// allocation figures of the passes that measured them.
func campaignLayers(rep *report, passes []passTimes, traced, plain []float64) {
	var rows []map[string]any
	var sumMeans float64
	for i, st := range campaignStages {
		xs := make([]int64, len(passes))
		for j, p := range passes {
			xs[j] = p.stage[i]
		}
		rep.metrics[st.metric] = secs(pctl(xs, 0.5))
		m := mean(xs) / 1e9
		sumMeans += m
		rows = append(rows, map[string]any{"layer": st.name + " (" + st.metric + ")", "mean_us": m * 1e6, "p50_us": us(pctl(xs, 0.5))})
	}
	var gen, ing, scan, t1, bpr []float64
	for _, p := range passes {
		bpr = append(bpr, p.bytesPerRecord)
	}
	for k, p := range passes {
		if k%2 == 1 {
			gen, ing, scan, t1 = append(gen, p.genAlloc), append(ing, p.ingestAlloc), append(scan, p.scanAlloc), append(t1, p.t1Alloc)
		}
	}
	rep.metrics["rad.generate_alloc_mb"] = medianF(gen)
	rep.metrics["tracedb.ingest_alloc_mb"] = medianF(ing)
	rep.metrics["tracedb.scan_alloc_mb"] = medianF(scan)
	rep.metrics["experiments.table1_alloc_mb"] = medianF(t1)
	rep.metrics["tracedb.bytes_per_record"] = medianF(bpr)
	rep.metrics["tracedb.segments"] = float64(passes[0].segments)
	rep.metrics["trace.overhead_pct"] = (medianF(traced)/medianF(plain) - 1) * 100
	totals := make([]int64, len(passes))
	for i, p := range passes {
		totals[i] = p.total
	}
	rep.notes["selftime"] = map[string]any{"rows": rows, "sum_of_means_s": sumMeans,
		"pass_mean_s": mean(totals) / 1e9, "passes": len(passes)}
}

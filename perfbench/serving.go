package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLabReplay measures lab-replay. Untraced, it starts the stack
// cfg.setups times and measures the last. Traced, it first runs untraced
// on one stack (the overhead baseline), then traced on a second.
func runLabReplay(cfg config) (*report, error) {
	rep := newReport()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	reqs, inputMB, err := serveInput(cfg, rep)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		s, setup, err := startStacks(cfg, cfg.setups, nil, rep)
		if err != nil {
			return nil, err
		}
		ss, err := runSession(cfg, s, reqs, dur, rep)
		if err != nil {
			return nil, err
		}
		servingEndToEnd(rep, ss)
		rep.metrics["setup_s"] = setup
		rep.metrics["heap_live_mb"] = ss.lg.heapMB - inputMB
		rep.notes["input_heap_mb"] = inputMB
		rep.notes["rss_peak_mb"] = ss.phase.rssPeak
		return rep, nil
	}

	s, _, err := startStacks(cfg, 1, nil, rep)
	if err != nil {
		return nil, err
	}
	base, err := runSession(cfg, s, reqs, time.Duration(float64(dur)*(1-tracedShare)), rep)
	if err != nil {
		return nil, err
	}
	baseMean := mean(servingLatency(base.lg, nil))
	p, err := newProbe(int((cfg.seconds + 1) * perSecondCap))
	if err != nil {
		return nil, err
	}
	if s, _, err = startStacks(cfg, 1, p, rep); err != nil {
		return nil, err
	}
	spans := s.spans
	ss, err := runSession(cfg, s, reqs, time.Duration(float64(dur)*tracedShare), rep)
	if err != nil {
		return nil, err
	}
	servingLayers(rep, ss, p, baseMean)
	servingRuntime(rep, base)
	rep.metrics["span.recorded"] = float64(spans.Stats().Recorded)
	rep.metrics["span.evicted"] = float64(ss.codec.missing(ss.lg.from, ss.lg.to))
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("lab-replay-seed%d-spans.jsonl", cfg.seed)), ss, p, 1000); err != nil {
		return nil, err
	}
	return rep, nil
}

// servingLatency is the round trip, send to reply, of each request in the
// timed window. With c set, only requests starting in calm windows count.
func servingLatency(lg *runlog, c *calm) []int64 {
	all := make([]int64, 0, lg.to-lg.from)
	var calm []int64
	for i := lg.from; i < lg.to; i++ {
		rtt := lg.recv[i] - lg.send[i]
		all = append(all, rtt)
		if c.has(lg.send[i]) {
			calm = append(calm, rtt)
		}
	}
	if len(calm) == 0 {
		return all
	}
	return calm
}

// deliver is send → tail receipt for each measured request.
func deliver(lg *runlog) []int64 {
	out := make([]int64, 0, lg.to-lg.from)
	for i := lg.from; i < lg.to; i++ {
		out = append(out, lg.tailRecv[i]-lg.send[i])
	}
	return out
}

func servingEndToEnd(rep *report, ss *session) {
	lg := ss.lg
	latencyMetrics(rep, servingLatency(lg, ss.calm))
	calmW, allW := ss.calm.windows()
	rep.notes["steal_filter"] = map[string]any{"calm_windows": calmW, "windows": allW,
		"limit_pct": ss.calm.limit, "latency_samples_of": lg.to - lg.from}
	rep.notes["exec_per_s"] = float64(lg.to-lg.from) / secs(lg.recv[lg.to-1]-lg.start)
	rep.notes["cpu_us_per_op"] = float64(ss.cpu) / 1e3 / float64(lg.n)
	del := deliver(lg)
	rep.notes["deliver_p50_us"] = us(pctl(del, 0.5))
	rep.notes["deliver_p99_us"] = us(pctl(del, 0.99))
	rep.notes["requests"] = lg.n
}

// servingLayers derives the per-layer metrics of a traced session from the
// probe's columns and the collected codec spans.
func servingLayers(rep *report, ss *session, p *probe, baseMean float64) {
	lg := ss.lg
	lat := servingLatency(lg, nil)
	rep.metrics["trace.overhead_pct"] = (mean(lat)/baseMean - 1) * 100
	col := func(f func(i int) int64) []int64 {
		out := make([]int64, 0, lg.to-lg.from)
		for i := lg.from; i < lg.to; i++ {
			out = append(out, f(i))
		}
		return out
	}
	total := func(xs []int64) float64 { return secs(sum(xs[:lg.n])) }
	put := func(name string, xs []int64, q float64) { rep.metrics[name] = us(pctl(xs, q)) }

	del := deliver(lg)
	put("deliver_p50_us", del, 0.5)
	put("deliver_p99_us", del, 0.99)
	put("wire.client_write_p50_us", col(func(i int) int64 { return lg.writeEnd[i] - lg.send[i] }), 0.5)
	var dec, enc, resid []int64
	for i := lg.from; i < lg.to; i++ {
		d, e := ss.codec.dec[i].dur, ss.codec.enc[i].dur
		if d < 0 || e < 0 {
			continue
		}
		dec, enc = append(dec, d), append(enc, e)
		rtt := lg.recv[i] - lg.send[i]
		resid = append(resid, rtt-(p.handleEnd[i]-p.handleStart[i])-d-e)
	}
	put("wire.decode_p50_us", dec, 0.5)
	put("wire.encode_p50_us", enc, 0.5)
	put("residual.unattributed_p50_us", resid, 0.5)
	handle := col(func(i int) int64 { return p.handleEnd[i] - p.handleStart[i] })
	put("middlebox.handle_p50_us", handle, 0.5)
	put("middlebox.handle_p99_us", handle, 0.99)
	busy := make([]int64, lg.n)
	for i := range busy {
		busy[i] = p.handleEnd[i] - p.handleStart[i]
	}
	rep.metrics["middlebox.busy_s"] = total(busy)
	queue := col(func(i int) int64 { return p.handleStart[i] - lg.writeEnd[i] })
	put("middlebox.queue_p50_us", queue, 0.5)
	put("middlebox.queue_p99_us", queue, 0.99)
	put("device.exec_p50_us", col(func(i int) int64 { return p.dev[i] }), 0.5)
	rep.metrics["device.busy_s"] = total(p.dev)
	rep.metrics["device.error_count"] = float64(p.devErrors)
	app := col(func(i int) int64 { return p.app[i] })
	put("tracedb.append_p50_us", app, 0.5)
	put("tracedb.append_p99_us", app, 0.99)
	rep.metrics["tracedb.busy_s"] = total(p.app)
	rep.metrics["tracedb.scan_s"] = secs(ss.scanNs)
	rep.metrics["tracedb.bytes_per_record"] = float64(ss.dbBytes) / float64(lg.n)
	rep.metrics["tracedb.segments"] = float64(ss.dbSegs)
	put("stream.publish_p50_us", col(func(i int) int64 { return p.pub[i] }), 0.5)
	rep.metrics["stream.busy_s"] = total(p.pub)
	sdel := col(func(i int) int64 { return lg.tailRecv[i] - p.commit[i] })
	put("stream.deliver_p50_us", sdel, 0.5)
	put("stream.deliver_p99_us", sdel, 0.99)
	rep.metrics["stream.dropped"] = float64(ss.dropped + lg.tailDropped)

	// Self time per layer over the measured requests. The rows partition
	// each round trip exactly: the two socket rows are
	// what no layer's span covers, and with the client write they make up
	// residual.unattributed.
	rows := []struct {
		layer string
		f     func(i int) int64
	}{
		{"client write (wire.client_write)", func(i int) int64 { return lg.writeEnd[i] - lg.send[i] }},
		{"socket in + wake-up (unattributed)", func(i int) int64 {
			return p.handleStart[i] - lg.writeEnd[i] - ss.codec.dec[i].dur
		}},
		{"wire.decode", func(i int) int64 { return ss.codec.dec[i].dur }},
		{"middlebox.handle self", func(i int) int64 {
			return p.handleEnd[i] - p.handleStart[i] - p.dev[i] - p.app[i]
		}},
		{"device.exec", func(i int) int64 { return p.dev[i] }},
		{"tracedb.append self", func(i int) int64 { return p.app[i] - p.pub[i] }},
		{"stream.publish", func(i int) int64 { return p.pub[i] }},
		{"wire.encode", func(i int) int64 { return ss.codec.enc[i].dur }},
		{"socket out + wake-up (unattributed)", func(i int) int64 {
			return lg.recv[i] - p.handleEnd[i] - ss.codec.enc[i].dur
		}},
	}
	var table []map[string]any
	var sumMeans float64
	for _, r := range rows {
		var xs []int64
		for i := lg.from; i < lg.to; i++ {
			if ss.codec.dec[i].dur >= 0 && ss.codec.enc[i].dur >= 0 {
				xs = append(xs, r.f(i))
			}
		}
		m := mean(xs) / 1e3
		sumMeans += m
		table = append(table, map[string]any{"layer": r.layer, "mean_us": m, "p50_us": us(pctl(xs, 0.5))})
	}
	var rtt []int64
	for i := lg.from; i < lg.to; i++ {
		if ss.codec.dec[i].dur >= 0 && ss.codec.enc[i].dur >= 0 {
			rtt = append(rtt, lg.recv[i]-lg.send[i])
		}
	}
	rep.notes["selftime"] = map[string]any{"rows": table, "sum_of_means_us": sumMeans,
		"rtt_mean_us": mean(rtt) / 1e3, "residual_mean_us": mean(resid) / 1e3, "requests": len(rtt)}
}

// servingRuntime reports allocation and GC figures from the untraced
// baseline session, since span collection allocates on its own.
func servingRuntime(rep *report, ss *session) {
	rep.metrics["runtime.alloc_bytes_per_exec"] = float64(ss.memB.alloc-ss.memA.alloc) / float64(ss.lg.n)
	rep.metrics["runtime.gc_cycles"] = float64(ss.memB.gcs - ss.memA.gcs)
}

// printSelfTimes prints the traced run's self-time table.
func printSelfTimes(rep *report) {
	st, ok := rep.notes["selftime"].(map[string]any)
	if !ok {
		return
	}
	fmt.Println("self time per layer (traced run)")
	for _, r := range st["rows"].([]map[string]any) {
		fmt.Printf("  %-40s mean %10.2f us   p50 %10.2f us\n", r["layer"], r["mean_us"], r["p50_us"])
	}
	if v, ok := st["rtt_mean_us"]; ok {
		fmt.Printf("  sum of layer means %.2f us = client RTT mean %.2f us; residual.unattributed mean %.2f us over %v requests\n",
			st["sum_of_means_us"], v, st["residual_mean_us"], st["requests"])
	}
	if v, ok := st["pass_mean_s"]; ok {
		fmt.Printf("  sum of stage means %.4f s; pass mean %.4f s over %v traced passes\n",
			st["sum_of_means_s"], v, st["passes"])
	}
}

// writeSpans writes the spans of the first limit measured requests as
// JSON lines: the client round trip as the root, each layer under it.
func writeSpans(path string, ss *session, p *probe, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	lg := ss.lg
	emit := func(i int, name, parent string, start, end int64) {
		if start > 0 && end >= start {
			fmt.Fprintf(w, `{"request":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n", i+1, name, parent, start, end)
		}
	}
	for i := lg.from; i < lg.to && i < lg.from+limit; i++ {
		emit(i, "client.exec", "", lg.send[i], lg.recv[i])
		emit(i, "wire.client_write", "client.exec", lg.send[i], lg.writeEnd[i])
		if d := ss.codec.dec[i]; d.dur >= 0 {
			emit(i, "wire.decode", "client.exec", d.start, d.start+d.dur)
		}
		emit(i, "middlebox.handle", "client.exec", p.handleStart[i], p.handleEnd[i])
		emit(i, "device.exec", "middlebox.handle", p.dev0[i], p.dev0[i]+p.dev[i])
		emit(i, "tracedb.append", "middlebox.handle", p.app0[i], p.app0[i]+p.app[i])
		emit(i, "stream.publish", "tracedb.append", p.pub0[i], p.pub0[i]+p.pub[i])
		if e := ss.codec.enc[i]; e.dur >= 0 {
			emit(i, "wire.encode", "client.exec", e.start, e.start+e.dur)
		}
		emit(i, "stream.deliver", "stream.publish", p.commit[i], lg.tailRecv[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

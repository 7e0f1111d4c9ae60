// Command perfbench is the repository benchmark: it drives the real
// middlebox stack and the offline dataset pipeline through their public
// interfaces, checks every output for correctness, and prints one result
// object as the last line of standard output.
//
//	perfbench -root DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see README.md for why each exists):
//
//	lab-replay  closed loop: one v2 exec connection, one request in flight, one live tail
//	campaign    the offline pipeline: generate, ingest, reopen, scan, reload, Table I, Fig. 5b, Fig. 6
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run carries the per-layer metrics, measured by wrapping
// each layer's interface from outside. A per-run report with host facts and
// sample counts is written under .bench_build/out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json (checked by
// TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_mean_us", "us"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"deliver_p50_us", "us"},
	{"deliver_p99_us", "us"},
	{"wire.client_write_p50_us", "us"},
	{"wire.decode_p50_us", "us"},
	{"wire.encode_p50_us", "us"},
	{"residual.unattributed_p50_us", "us"},
	{"middlebox.handle_p50_us", "us"},
	{"middlebox.handle_p99_us", "us"},
	{"middlebox.busy_s", "s"},
	{"middlebox.queue_p50_us", "us"},
	{"middlebox.queue_p99_us", "us"},
	{"device.exec_p50_us", "us"},
	{"device.busy_s", "s"},
	{"device.error_count", "count"},
	{"tracedb.append_p50_us", "us"},
	{"tracedb.append_p99_us", "us"},
	{"tracedb.busy_s", "s"},
	{"tracedb.ingest_s", "s"},
	{"tracedb.open_s", "s"},
	{"tracedb.scan_s", "s"},
	{"tracedb.bytes_per_record", "B"},
	{"tracedb.segments", "count"},
	{"stream.publish_p50_us", "us"},
	{"stream.busy_s", "s"},
	{"stream.deliver_p50_us", "us"},
	{"stream.deliver_p99_us", "us"},
	{"stream.dropped", "count"},
	{"rad.generate_s", "s"},
	{"rad.fromrecords_s", "s"},
	{"experiments.table1_s", "s"},
	{"experiments.fig5b_s", "s"},
	{"experiments.fig6_s", "s"},
	{"rad.generate_alloc_mb", "MB"},
	{"tracedb.ingest_alloc_mb", "MB"},
	{"tracedb.scan_alloc_mb", "MB"},
	{"experiments.table1_alloc_mb", "MB"},
	{"runtime.alloc_bytes_per_exec", "B"},
	{"runtime.gc_cycles", "count"},
	{"span.recorded", "count"},
	{"span.evicted", "count"},
	{"trace.overhead_pct", "%"},
}

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch directory for stores, removed at exit
	out     string // report directory
	setups  int    // times set-up is repeated; setup_s is their median
	hooks   hooks
}

// report accumulates what a workload measured. Metrics a workload does
// not exercise stay 0 (see README.md, "Metrics per workload").
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     map[string]any // sample counts, digests, host facts
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]any{}}
}

// fail records n failed checks with a reason on standard error.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// workloads maps each name to its run and how many times it sets up; a
// serving stack starts in milliseconds, a campaign reference takes most of
// a second.
var workloads = map[string]struct {
	run    func(cfg config) (*report, error)
	setups int
}{
	"lab-replay": {runLabReplay, 21},
	"campaign":   {runCampaign, 5},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root; scratch and reports go under ROOT/.bench_build")
	name := fs.String("workload", "", "lab-replay or campaign")
	seed := fs.Uint64("seed", 11, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	base := filepath.Join(*root, ".bench_build")
	work, err := os.MkdirTemp(ensureDir(base), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, work: work,
		out: ensureDir(filepath.Join(base, "out")), setups: wl.setups}

	host := hostFacts()
	total0, steal0 := stealJiffies()
	rep, err := wl.run(cfg)
	if err != nil {
		return err
	}
	total1, steal1 := stealJiffies()
	if total1 > total0 {
		host["steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	rep.notes["host"] = host
	rep.notes["vmhwm_mb"] = vmHWM()
	if cfg.trace {
		printSelfTimes(rep)
	}
	return emit(os.Stdout, cfg, *name, rep)
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write below it
	return dir
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit writes the per-run report file and prints the result object.
func emit(w *os.File, cfg config, name string, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultOut{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: rep.metrics[d.name], Unit: d.unit}
	}
	full := map[string]any{"workload": name, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "result": res, "all_metrics": rep.metrics, "notes": rep.notes}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, b2i(cfg.trace)))
	if err := os.WriteFile(path, append(mustJSON(full), '\n'), 0o644); err != nil {
		return err
	}
	keys := make([]string, 0, len(rep.notes))
	for k := range rep.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "selftime" {
			fmt.Printf("note %s=%s\n", k, mustJSON(rep.notes[k]))
		}
	}
	_, err := fmt.Fprintf(w, "%s\n", mustJSON(res))
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are marshalled
	}
	return b
}

// now is the benchmark clock: monotonic nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

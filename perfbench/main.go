// Command perfbench is the repository's benchmark. It runs one workload
// per invocation, drives the program only through its public entry points
// (searchseizure.New / RunContext / Experiment, and the studysvc /v1
// handler over loopback HTTP), checks the outputs, and prints every metric
// with its unit and sample count, then one JSON result line.
//
//	perfbench --workload bench_study --seed 3 --seconds 40 --trace 0
//
// With --trace 0 the run is untraced (telemetry off) and reports the
// end-to-end metrics. With --trace 1 it makes a paired untraced and
// traced run and reports the per-layer metrics; the pair gives the tracing
// overhead. README.md defines every metric, the layer each one belongs to
// and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"study_ms_per_day", "ms"},
	{"day_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, in BENCHMARK.json
// order. A metric whose unit is "count" must repeat exactly at any
// GOMAXPROCS; a "_tail" metric is the highest percentile with at least
// minBeyond samples beyond it (the maximum when there are too few).
var perLayer = []metricSpec{
	{"core.observe_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"core.traffic_ms", "ms"},
	{"core.day_other_ms", "ms"},
	{"core.observe_straggler", "ratio"},
	{"core.finalize_ms", "ms"},
	{"experiments.ms", "ms"},
	{"crawler.checkurl_us", "us"},
	{"crawler.render_us", "us"},
	{"htmlparse.termset_us", "us"},
	{"htmlparse.triplets_us", "us"},
	{"simweb.fetch_us", "us"},
	{"crawler.detector_runs", "count"},
	{"crawler.verdicts_reused", "count"},
	{"crawler.reuse_ratio", "ratio"},
	{"crawler.fetch_attempts", "count"},
	{"crawler.fetch_retries", "count"},
	{"classify.train_ms", "ms"},
	{"classify.train_probe_ms", "ms"},
	{"classify.epochs", "count"},
	{"parallel.observe_util", "ratio"},
	{"parallel.crawl_util", "ratio"},
	{"parallel.train_util", "ratio"},
	{"checkpoint.save_ms_p50", "ms"},
	{"checkpoint.save_ms_tail", "ms"},
	{"checkpoint.export_ms", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"api.launch_ms", "ms"},
	{"studysvc.day_gap_ms_tail", "ms"},
	{"api.get_ms_tail", "ms"},
	{"api.list_ms_tail", "ms"},
	{"api.events_ms_tail", "ms"},
	{"api.web_ms_tail", "ms"},
	{"api.experiment_ms_tail", "ms"},
	{"api.get_server_ms_tail", "ms"},
	{"api.list_server_ms_tail", "ms"},
	{"api.events_server_ms_tail", "ms"},
	{"api.web_server_ms_tail", "ms"},
	{"api.experiment_server_ms_tail", "ms"},
	{"loadgen.lag_ms_tail", "ms"},
	{"loadgen.requests", "req"},
	{"runtime.alloc_mb_per_day", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_ms_tail", "ms"},
	{"runtime.sched_latency_ms_tail", "ms"},
	{"telemetry.overhead_pct", "%"},
	{"layers.residual_pct", "%"},
}

// residualTolerancePct is how far, in percent of the study wall, the
// layer sum (set-up + days + finalize + experiments) may miss the
// end-to-end wall before the traced run counts a failed check.
const residualTolerancePct = 2.0

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(b *bench) // fills b.res
}

var workloads = []workload{
	{"bench_study", "BenchConfig over the full window then every experiment, closed loop: crawler render/term-set and GC dominate; no checkpoint or HTTP, the control", runBenchStudy},
	{"paper_cold", "DefaultConfig (paper scale) capped at its cold day 0: set-up is classifier training, the day a cold crawl of every domain; largest peak memory", runPaperCold},
	{"service_mix", "six faulted tenants checkpointing every day under studysvc, with an open-loop /v1 reader: checkpoint saves, faults and read queueing", runServiceMix},
}

// defaultSeed is the seed whose fingerprints pins.go pins.
const defaultSeed = 1

// bench is one invocation's settings and results.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration // --seconds
	traced   bool
	start    time.Time
	scratch  string // this process's private directory under .bench_build
	tr       *tracer
	res      *result
}

// line is one printed figure.
type line struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the value
	note  string // e.g. which percentile a tail is
}

// result collects metrics and the outcome of every checked operation.
type result struct {
	mu        sync.Mutex // guards attempted, failed and failures
	metrics   map[string]line
	extra     []line // printed, not part of the JSON result
	attempted int
	failed    int
	failures  []string
}

func newResult() *result { return &result{metrics: map[string]line{}} }

func (r *result) set(name, unit string, v float64, n int) { r.setNote(name, unit, v, n, "") }

func (r *result) setNote(name, unit string, v float64, n int, note string) {
	r.metrics[name] = line{name, unit, v, n, note}
}

func (r *result) print(name, unit string, v float64, n int, note string) {
	r.extra = append(r.extra, line{name, unit, v, n, note})
}

// check counts one attempted operation, failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed operation from its error.
func (r *result) fail(err error) { r.check(false, "%v", err) }

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace))
}

func run(name string, seed int64, seconds, trace int) int {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	scratch := filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{workload: name, seed: seed, budget: time.Duration(seconds) * time.Second,
		traced: trace == 1, start: time.Now(), scratch: scratch, res: newResult()}
	if b.traced {
		b.tr = newTracer()
	}
	wl.run(b)
	if !b.traced {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		b.res.set("peak_rss_mb", "MB", rss, 1)
	}
	if b.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %s (%d)\n", path, len(b.tr.spans))
		printSelfTimes(b.tr)
	}
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	if err := sameNames(b.res.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := report(b, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sameNames checks that got holds exactly the metrics of want, with
// their units.
func sameNames(got map[string]line, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("produced %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		l, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not produced", m.Name)
		}
		if l.unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", m.Name, l.unit, m.Unit)
		}
	}
	return nil
}

// report prints one line per figure, then the JSON result as the last
// line of standard output.
func report(b *bench, want []metricSpec) error {
	r := b.res
	fmt.Printf("workload=%s seed=%d trace=%v gomaxprocs=%d wall=%.1fs\n",
		b.workload, b.seed, b.traced, runtime.GOMAXPROCS(0), time.Since(b.start).Seconds())
	show := func(l line) {
		fmt.Printf("  %-32s %14.4f %-6s n=%-6d attempted=%d failed=%d %s\n",
			l.name, l.value, l.unit, l.n, r.attempted, r.failed, l.note)
	}
	for _, m := range want {
		show(r.metrics[m.Name])
	}
	for _, l := range r.extra {
		show(l)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	show(line{name: "error_rate", unit: "ratio", value: errRate, n: r.attempted})
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jv{}}
	for _, m := range want {
		out.Metrics[m.Name] = jv{r.metrics[m.Name].value, m.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(raw))
	return nil
}

// printSelfTimes lists the span names with the most self time.
func printSelfTimes(t *tracer) {
	self := selfTimes(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span:")
	for i, n := range names {
		if i == 12 {
			break
		}
		fmt.Printf("  %-28s %10.1f ms\n", n, ms(self[n]))
	}
}

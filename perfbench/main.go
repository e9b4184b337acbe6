// Command perfbench is the repository benchmark. It drives the REFINE
// reproduction only through its public Go functions on one of three
// workloads, checks that every result is correct, and prints one JSON
// result object as the last line of standard output.
//
//	perfbench --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it runs the same workload once untraced and
// once as its constituent public calls, each wrapped in a span, and reports
// the per-layer metrics plus the tracing overhead. NOTES.md records why each
// workload and metric was chosen and what the numbers mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/shard"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state shared by one benchmark invocation: its parameters, the
// correctness and failure ledger, and the metrics it has measured.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	nproc   int
	work    string // scratch root inside the checkout

	errs      []string // failed correctness gates
	attempted int      // operations attempted (campaigns, submissions)
	failed    int      // failure incidents: errors, harness faults, reconnects, deaths, disk and journal errors

	metrics    map[string]metric
	samples    map[string]int // sample count behind each percentile metric
	setupTimes []float64      // seconds, one per set-up (see repeatSetup)
	tracer     *tracer
}

// gate records a failed correctness check; any failed gate makes the run
// exit non-zero.
func (r *run) gate(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// absent reports per-layer metrics of layers the workload does not use as
// zero.
func (r *run) absent(names ...string) {
	for _, n := range names {
		unit := "count"
		switch {
		case strings.HasSuffix(n, "_ms") || strings.HasSuffix(n, "_ms_p50"):
			unit = "ms"
		case strings.HasSuffix(n, "_x"):
			unit = "ratio"
		case strings.HasSuffix(n, "_frac"):
			unit = "frac"
		}
		r.set(n, 0, unit)
	}
}

var (
	persistMetrics = []string{"campaign.cache_load_ms", "campaign.compose_restore_ms",
		"compose.trials_reused", "compose.trials_reinjected", "compose.reuse_frac"}
	journalMetrics = []string{"journal.appends", "journal.errors"}
	serveMetrics   = []string{"shard.campaign_ms_p50", "shard.overhead_x", "shard.deaths",
		"serve.overhead_ms", "serve.replay_ms_p50", "serve.executions", "serve.submissions"}
)

// setPct reports the q-quantile of samples (milliseconds) and records the
// sample count printed beside it.
func (r *run) setPct(name string, samples []float64, q float64) {
	r.set(name, quantile(samples, q), "ms")
	r.samples[name] = len(samples)
	// Samples above the interpolated quantile's position q·(n-1).
	if beyond := len(samples) - 1 - int(q*float64(len(samples)-1)); q > 0.5 && beyond < 10 {
		r.gate(false, "%s: only %d samples beyond the percentile (need 10)", name, beyond)
	}
}

type workload struct {
	why string
	fn  func(r *run) error
}

var benchWorkloads = map[string]workload{
	"paper-suite":   {"the paper's 14x3 evaluation; trial-bound", paperSuite},
	"edit-loop":     {"single-function edits re-analysed through the disk cache", editLoop},
	"serve-sharded": {"small campaigns through fi-serve over a stdio shard pool", serveSharded},
}

func main() {
	shard.MaybeWorker() // the serve-sharded pool re-execs this binary as its workers
	name := flag.String("workload", "", "workload: paper-suite, edit-loop or serve-sharded")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	w, ok := benchWorkloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := execute(*name, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles the result; it is main without the
// process exit, so the smoke test can drive it.
func execute(name string, w workload, seed uint64, seconds float64, trace bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(work)
	r := &run{seed: seed, seconds: seconds, trace: trace,
		nproc: runtime.NumCPU(), work: work,
		metrics: map[string]metric{}, samples: map[string]int{}}
	if trace {
		r.tracer = newTracer()
	}
	fmt.Printf("# host: %s\n", hostStamp())
	fmt.Printf("# workload: %s (%s) seed=%d seconds=%g trace=%v\n", name, w.why, seed, seconds, trace)
	if err := w.fn(r); err != nil {
		return nil, err
	}
	if !trace {
		r.set("setup_s", quantile(r.setupTimes, 0.5), "s")
		r.samples["setup_s"] = len(r.setupTimes)
	} else {
		if err := r.tracer.write(fmt.Sprintf(".bench_build/trace-%s-seed%d.json", name, seed), hostStamp()); err != nil {
			return nil, err
		}
	}
	r.report()
	return &result{Correct: len(r.errs) == 0, Attempted: max(r.attempted, 1),
		Failed: r.failed, Metrics: r.metrics}, nil
}

// report prints every metric with its unit and sample count, the failure
// ledger, and every failed gate, ahead of the JSON line.
func (r *run) report() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-36s %14.6g %s", n, m.Value, m.Unit)
		if k, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Println(line)
	}
	frac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("failed_frac %g (%d failed / %d attempted)\n", frac, r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Printf("GATE FAILED: %s\n", e)
	}
}

// setupEvery is how often edit-loop and serve-sharded take another set-up
// sample during their timed phase (see repeatSetup).
const setupEvery = 6 * time.Second

// repeatSetup performs setup n times, tearing down all but the last, and
// returns the last value with a resample function. The workload calls
// resample between units of timed work; once every has passed since the
// last sample it sets up and tears down once more, so that the samples
// spread over the run and their median, reported as setup_s, averages over
// the host's speed swings as the timed metrics do.
func repeatSetup[T any](r *run, n int, every time.Duration, setup func() (T, error), teardown func(T)) (T, func() error, error) {
	var (
		v    T
		last time.Time
	)
	sample := func() (T, error) {
		start := time.Now()
		v, err := setup()
		last = time.Now()
		r.setupTimes = append(r.setupTimes, last.Sub(start).Seconds())
		return v, err
	}
	resample := func() error {
		if time.Since(last) < every {
			return nil
		}
		v, err := sample()
		teardown(v)
		return err
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(v)
		}
		var err error
		if v, err = sample(); err != nil {
			return v, resample, err
		}
	}
	return v, resample, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the peak resident set (VmHWM) of this process plus that of
// each given worker process, in MiB. Workloads read it when their timed
// phase ends, before the correctness gates add work of their own.
func peakRSSMB(pids ...int) float64 {
	var kib float64
	for _, p := range append([]string{"self"}, pidNames(pids)...) {
		b, err := os.ReadFile("/proc/" + p + "/status")
		if err != nil {
			continue
		}
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
				v, _ := strconv.ParseFloat(f[1], 64)
				kib += v
			}
		}
	}
	return kib / 1024
}

func pidNames(pids []int) []string {
	var out []string
	for _, p := range pids {
		out = append(out, strconv.Itoa(p))
	}
	return out
}

// hostStamp names the machine and the code a result came from.
func hostStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(l[strings.Index(l, ":")+1:])
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())
}

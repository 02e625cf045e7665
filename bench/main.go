// Command bench is the repository's benchmark. It self-hosts the scenario
// daemon (or, for the engine workload, calls scenario.Run directly),
// drives it with a seeded, fixed amount of work, checks every output,
// and prints its metrics; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage (run from the repository root; bench/run.sh builds and runs it):
//
//	bench --workload hit|churn|tier|engine --seed N --seconds S --trace 0|1 [--spans FILE]
//	bench --workload W --runs N ...   repeat mode: N runs on the one seed, medians and spreads
//	bench --ledger FILE               split every latency metric of a traced run into its layers
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	// window is --seconds; it sizes the fixed work, ops.
	window time.Duration
	// ops is the run's fixed work, operations over all clients; runWorkload
	// sets it from the window and the workload's frozen rate.
	ops   int
	trace bool
	// scale sizes the pre-filled stores: 1 on the command line, smaller in
	// the tests' smoke runs.
	scale    float64
	workDir  string
	spansOut string
	// goldens overrides the embedded engine goldens (tests).
	goldens goldens
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how often an untraced run sets its workload up; it reports
// the median set-up time and measures on the last set-up.
const setupReps = 5

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hit, churn, tier or engine")
	seed := fs.Int64("seed", 1, "workload seed (1 for development, 2 held out for claims)")
	seconds := fs.Float64("seconds", 20, "run length in seconds: sizes the fixed work by the workload's frozen rate")
	traceFlag := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	spansOut := fs.String("spans", "", "traced run: write the spans to this file")
	ledgerIn := fs.String("ledger", "", "print the ledger of a spans file written by a traced run, then exit")
	runs := fs.Int("runs", 0, "repeat mode: run N times on the one seed and print medians and spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ledgerIn != "" {
		f, err := readSpans(*ledgerIn)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printLedger(stdout, f.Workload, ledger(f))
		return 0
	}
	if _, ok := findWorkload(*name); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want hit, churn, tier or engine)\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	if *runs > 0 {
		return repeat(*runs, *name, *seed, *seconds, *traceFlag, stdout, stderr)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		scale:    1,
		workDir:  filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
		spansOut: *spansOut,
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "cpu_ms_per_op", strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_cell"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "share"),
		strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_put"):
		return "ratio"
	}
	return "count"
}

// runWorkload sets the workload up, measures its fixed work, checks its
// outputs and returns its metrics, printing a readable report to out.
func runWorkload(cfg config, out io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	cfg.ops = max(1, int(math.Round(w.opsPerSec*cfg.window.Seconds())))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	var tr *tracer
	var calib []float64
	reps := setupReps
	if cfg.trace {
		tr = newTracer(max(cfg.window/20, 10*time.Millisecond))
		calib = append(calib, hostCalib())
		reps = 1
	}
	var setups []float64
	var tg target
	for i := 0; i < reps; i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", w.name, i))
		start := time.Now()
		t, err := w.setup(&cfg, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == reps-1 {
			tg = t
			break
		}
		// The earlier set-ups' stores stay on disk until the run ends, so
		// deleting them cannot disturb the next set-up or the window.
		if err := t.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up %d: %w", i, err)
		}
	}

	windowStart := time.Now()
	if tr != nil {
		tr.begin(windowStart)
	}
	lr := closedLoop(tg.numClients(), perClient(cfg.ops, tg.numClients()), tg.op)
	if tr != nil {
		tr.end()
	}
	fails := tg.check()
	layer := map[string]float64{}
	tg.layers(layer)
	if err := tg.stop(); err != nil {
		fails = append(fails, fmt.Sprintf("stopping the daemon: %v", err))
	}
	for _, err := range lr.errs {
		fmt.Fprintln(out, "failed:", err)
	}
	for _, f := range fails {
		fmt.Fprintln(out, "check failed:", f)
	}

	res := &result{Attempted: len(lr.samples), Failed: lr.failed(), Metrics: map[string]metric{}}
	res.Correct = len(fails) == 0 && res.Failed == 0 && res.Attempted > 0
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	fmt.Fprintf(out, "workload %s seed %d: %d operations in %.2f s, %d failed\n",
		w.name, cfg.seed, res.Attempted, lr.wall.Seconds(), res.Failed)

	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		all := latenciesMS(lr.samples, func(sample) bool { return true })
		p50, _ := quantile(all, 0.50)
		p99, beyond := quantile(all, 0.99)
		if beyond < minBeyond {
			fmt.Fprintf(out, "warning: op_p99_ms has %d samples beyond it (want %d); raise --seconds\n", beyond, minBeyond)
		}
		ok := float64(res.Attempted - res.Failed)
		set("setup_s", median(setups))
		set("op_p50_ms", finite(p50, cfg.window))
		set("op_p99_ms", finite(p99, cfg.window))
		set("ops_per_s", ok/lr.wall.Seconds())
		set("cpu_ms_per_op", float64(lr.cpu)/float64(time.Millisecond)/math.Max(ok, 1))
		set("peak_rss_mb", rss)
		fmt.Fprintf(out, "op latency: %d samples, p99 has %d beyond it; set-ups %v s\n", len(all), beyond, setups)
	} else {
		if err := tracedLayers(cfg, tr, tg, lr, windowStart, layer, out); err != nil {
			return nil, err
		}
		calib = append(calib, hostCalib())
		layer["host.calib_ns"] = median(calib)
		for name, v := range layer {
			set(name, v)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// finite reports a latency percentile that landed on a failed operation
// as the whole window: a failure misses every latency limit.
func finite(ms float64, window time.Duration) float64 {
	if math.IsInf(ms, 0) || math.IsNaN(ms) {
		return float64(window) / float64(time.Millisecond)
	}
	return ms
}

// tracedLayers fills layer with the per-layer metrics of a traced run:
// the live spans' shares and counts, the replay probes, the engine split
// and the tracing overhead; it prints the ledger and writes the spans.
func tracedLayers(cfg config, tr *tracer, tg target, lr loopResult, windowStart time.Time, layer map[string]float64, out io.Writer) error {
	spans := tr.collected()
	var traced time.Duration
	for s := time.Duration(0); s < lr.wall; s += tr.sliceLen {
		if tr.tracedSlice(s) {
			traced += min(tr.sliceLen, lr.wall-s)
		}
	}
	for k, v := range liveMetrics(tr, spans, traced) {
		layer[k] = v
	}

	// Tracing overhead: the median latency of requests started in traced
	// slices against those started in untraced ones.
	on := latenciesMS(lr.samples, func(s sample) bool { return tr.tracedSlice(s.start.Sub(windowStart)) })
	off := latenciesMS(lr.samples, func(s sample) bool { return !tr.tracedSlice(s.start.Sub(windowStart)) })
	p50on, _ := quantile(on, 0.5)
	p50off, _ := quantile(off, 0.5)
	layer["trace.overhead_pct"] = 100 * (finite(p50on, cfg.window) - finite(p50off, cfg.window)) / finite(p50off, cfg.window)

	cells := tg.sample()
	if len(cells) == 0 {
		return fmt.Errorf("traced run recorded no replies to replay")
	}
	replay, err := requestPath(cells)
	if err != nil {
		return err
	}
	store, err := storePath(filepath.Join(cfg.workDir, "replay-store"), cells)
	if err != nil {
		return err
	}
	engine, err := engineLayers(cfg.seed)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{replay, store, engine} {
		for k, v := range m {
			layer[k] = v
		}
	}

	f := spansFile{Workload: cfg.workload, SliceNS: tr.sliceLen.Nanoseconds(), Spans: spans}
	for _, step := range requestSteps {
		f.Replay = append(f.Replay, entry{Name: step, Value: replay[step]})
	}
	printLedger(out, cfg.workload, ledger(f))
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, f); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// repeat runs the workload n times in child processes, all on the one
// seed, and prints each metric's median, quartiles and spreads; its last
// line is a result whose metrics are the medians. With the inputs fixed,
// the spreads are the run-to-run noise alone, and deterministic counts
// must repeat exactly.
func repeat(n int, name string, seed int64, seconds float64, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	sum := result{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe,
			"--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		r, perr := lastResult(outb)
		if perr != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v (exit: %v)\n", i+1, perr, err)
			return 1
		}
		sum.Correct = sum.Correct && r.Correct && err == nil
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		fmt.Fprintf(stdout, "run %d seed %d: correct=%v attempted=%d failed=%d\n", i+1, seed, r.Correct, r.Attempted, r.Failed)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := r.Metrics[k]
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			fmt.Fprintf(stdout, "  %s=%.6g", k, m.Value)
		}
		fmt.Fprintln(stdout)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-36s %6s %12s %12s %12s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med")
	for _, k := range names {
		v := append([]float64(nil), values[k]...)
		sort.Float64s(v)
		q := quartiles(v)
		med := median(v)
		fmt.Fprintf(stdout, "%-36s %6s %12.6g %12.6g %12.6g %9.4f %9.4f\n",
			k, units[k], med, q[0], q[2], ratio(q[2]-q[0], math.Abs(med)), ratio(v[len(v)-1]-v[0], math.Abs(med)))
		sum.Metrics[k] = metric{Value: med, Unit: units[k]}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result on the last non-empty line of a run's
// standard output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

// Command benchjson converts `go test -bench` output into a stable,
// machine-readable JSON document, so every PR can commit its performance
// baseline (ns/op, allocs/op, and custom metrics like ticks/s) and future
// changes diff against a trajectory instead of prose in commit messages.
//
// Usage:
//
//	go test -run xxx -bench <pattern> -benchmem . | go run ./cmd/benchjson -out BENCH.json
//	go test -run xxx -bench <pattern> -benchmem . | go run ./cmd/benchjson -compare BENCH_PR3.json
//
// Lines that are not benchmark results (the goos/goarch/pkg/cpu header is
// captured into the environment block; PASS/FAIL and everything else is
// ignored) pass through silently, so the tool can sit at the end of any
// bench pipeline.
//
// With -compare, the freshly parsed results are diffed against a
// previously committed baseline: one line per benchmark present in both
// documents with the ns/op and allocs/op deltas, then a non-zero exit if
// any benchmark regressed by more than -threshold (default 15%) in wall
// time or allocations. Benchmarks present on only one side are listed but
// never fail the comparison (patterns evolve across PRs).
//
// With -ab, stdin and the named file are both raw `go test -bench`
// output of several rounds, the change's and its base's, as
// scripts/benchab.sh writes them: a benchmark's i-th line on one side
// pairs with its i-th line on the other. Each benchmark prints the
// median of its paired ns/op ratios (change/base), how many pairs the
// change ran faster, the ratios' interquartile range and the mean
// allocs/op of each side. The exit is non-zero if a benchmark is
// slower, its median ratio past 1+threshold with the change slower in
// at least nine pairs of ten (the mirror of the rule a claimed gain
// meets), or if the change's mean allocs/op exceed the base's by half an
// allocation or more. The mean, since a benchmark that serves HTTP also
// counts the allocations of the server's own goroutines and reads one
// more in some rounds (BenchmarkServiceStoreHit 165 instead of 164 in up
// to half of them on one binary): a jittered round moves the mean of ten
// by a tenth, one more allocation per op moves it by a whole one.
//
//	go run ./cmd/benchjson -ab base.out -threshold 0.08 < head.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other reported unit (e.g. "ticks/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the file layout.
type Document struct {
	// Env captures the bench header: goos, goarch, pkg, cpu.
	Env map[string]string `json:"env,omitempty"`
	// Benchmarks are the parsed results in input order.
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one benchmark result line, reporting ok=false for
// non-benchmark lines.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := fields[0]
	// Strip the trailing -N procs suffix if present.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Result{Name: name, Iterations: iters, NsPerOp: -1}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp < 0 {
		return Result{}, false
	}
	return r, true
}

// compare diffs the fresh results against a baseline document and
// reports whether any benchmark regressed beyond the threshold.
func compare(old, fresh Document, threshold float64) (regressed bool) {
	byName := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		byName[r.Name] = r
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	fmt.Printf("%-40s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "Δ%", "allocs")
	for _, r := range fresh.Benchmarks {
		seen[r.Name] = true
		o, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-40s %14s %14.0f %8s %10s\n", r.Name, "(new)", r.NsPerOp, "-", allocsCell(nil, r.AllocsPerOp))
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (r.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		mark := ""
		if o.NsPerOp > 0 && r.NsPerOp > o.NsPerOp*(1+threshold) {
			mark = "  REGRESSION(time)"
			regressed = true
		}
		if o.AllocsPerOp != nil && r.AllocsPerOp != nil &&
			*r.AllocsPerOp > *o.AllocsPerOp*(1+threshold)+1e-9 {
			mark += "  REGRESSION(allocs)"
			regressed = true
		}
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%% %10s%s\n",
			r.Name, o.NsPerOp, r.NsPerOp, delta, allocsCell(o.AllocsPerOp, r.AllocsPerOp), mark)
	}
	for _, r := range old.Benchmarks {
		if !seen[r.Name] {
			fmt.Printf("%-40s %14.0f %14s\n", r.Name, r.NsPerOp, "(gone)")
		}
	}
	return regressed
}

// allocsCell renders an old->new allocs/op pair.
func allocsCell(prev, cur *float64) string {
	switch {
	case prev == nil && cur == nil:
		return "-"
	case prev == nil:
		return fmt.Sprintf("?->%.0f", *cur)
	case cur == nil:
		return fmt.Sprintf("%.0f->?", *prev)
	default:
		return fmt.Sprintf("%.0f->%.0f", *prev, *cur)
	}
}

// abCompare pairs the base's and the head's results by round (a
// benchmark's i-th result on each side) and prints one line per
// benchmark in the base's order: the median of the paired head/base
// ns/op ratios, the pairs the head won, the ratios' interquartile range
// and each side's mean allocs/op. It reports whether any benchmark is
// slower (a median ratio past 1+threshold, the head slower in at least
// nine tenths of the pairs) or allocates more (a mean allocs/op higher
// by half an allocation or more). Benchmarks present on only one side
// are listed but never fail.
func abCompare(base, head Document, threshold float64) (failed bool) {
	baseRounds, order := byRound(base)
	headRounds, headOrder := byRound(head)
	fmt.Printf("%-56s %5s %8s %6s %6s %14s\n", "benchmark", "pairs", "ratio", "wins", "IQR", "allocs")
	for _, name := range order {
		b, h := baseRounds[name], headRounds[name]
		n := min(len(b), len(h))
		if n == 0 {
			fmt.Printf("%-56s %5s\n", name, "(base only)")
			continue
		}
		ratios := make([]float64, n)
		wins, losses := 0, 0
		for i := range ratios {
			ratios[i] = h[i].NsPerOp / b[i].NsPerOp
			switch {
			case ratios[i] < 1:
				wins++
			case ratios[i] > 1:
				losses++
			}
		}
		q1, med, q3 := quartiles(ratios)
		mark := ""
		if med > 1+threshold && 10*losses >= 9*n {
			mark = "  SLOWER"
			failed = true
		}
		allocs := "-"
		ba, bok := meanAllocs(b[:n])
		ha, hok := meanAllocs(h[:n])
		if bok && hok {
			allocs = fmt.Sprintf("%.1f->%.1f", ba, ha)
			if ha-ba >= 0.5 {
				mark += "  ALLOCS"
				failed = true
			}
		}
		fmt.Printf("%-56s %5d %8.3f %3d/%-2d %6.3f %14s%s\n",
			name, n, med, wins, n, q3-q1, allocs, mark)
	}
	for _, name := range headOrder {
		if len(baseRounds[name]) == 0 {
			fmt.Printf("%-56s %5s\n", name, "(head only)")
		}
	}
	return failed
}

// byRound groups a document's results by benchmark name, in input order,
// and lists the names in order of first appearance.
func byRound(doc Document) (map[string][]Result, []string) {
	rounds := make(map[string][]Result)
	var order []string
	for _, r := range doc.Benchmarks {
		if len(rounds[r.Name]) == 0 {
			order = append(order, r.Name)
		}
		rounds[r.Name] = append(rounds[r.Name], r)
	}
	return rounds, order
}

// quartiles returns the first quartile, the median and the third
// quartile of xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// meanAllocs is the mean allocs/op over a benchmark's rounds, and false
// when a round lacks it (no -benchmem).
func meanAllocs(rs []Result) (float64, bool) {
	sum := 0.0
	for _, r := range rs {
		if r.AllocsPerOp == nil {
			return 0, false
		}
		sum += *r.AllocsPerOp
	}
	return sum / float64(len(rs)), true
}

// parse reads `go test -bench` output: the benchmark lines, and the
// goos/goarch/pkg/cpu header into the environment block.
func parse(r io.Reader) (Document, error) {
	doc := Document{Env: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if rest, ok := strings.CutPrefix(line, key+":"); ok {
				doc.Env[key] = strings.TrimSpace(rest)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Document{}, err
	}
	if len(doc.Benchmarks) == 0 {
		return Document{}, fmt.Errorf("no benchmark results")
	}
	return doc, nil
}

func main() {
	out := flag.String("out", "", "output path (default stdout)")
	comparePath := flag.String("compare", "", "baseline JSON to diff against; exits non-zero on regression")
	abPath := flag.String("ab", "", "the base's raw rounds of bench output to pair stdin's with; exits non-zero on a slowdown or more allocations")
	threshold := flag.Float64("threshold", 0.15, "regression threshold for -compare and -ab (fraction of the baseline)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: stdin:", err)
		os.Exit(1)
	}
	if *abPath != "" {
		f, err := os.Open(*abPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		base, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *abPath, err)
			os.Exit(1)
		}
		if abCompare(base, doc, *threshold) {
			fmt.Fprintf(os.Stderr, "benchjson: slower beyond %.0f%% or more allocations against %s\n",
				*threshold*100, *abPath)
			os.Exit(1)
		}
		return
	}
	if *comparePath != "" {
		b, err := os.ReadFile(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var old Document
		if err := json.Unmarshal(b, &old); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: decoding %s: %v\n", *comparePath, err)
			os.Exit(1)
		}
		if compare(old, doc, *threshold) {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% against %s\n",
				*threshold*100, *comparePath)
			os.Exit(1)
		}
		if *out == "" {
			return
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

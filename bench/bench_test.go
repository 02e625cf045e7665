package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_golden.json from the current engine")

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func smokeConfig(t *testing.T, name string, trace bool) config {
	return config{
		workload: name,
		seed:     1,
		window:   300 * time.Millisecond,
		trace:    trace,
		scale:    0.01,
		workDir:  t.TempDir(),
	}
}

// TestSmokeEveryWorkload runs every workload briefly on tiny stores, both
// untraced and traced, and checks each prints exactly the metrics
// BENCHMARK.json lists, finite and with their units, and that a traced
// run's spans give a ledger.
func TestSmokeEveryWorkload(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var listed []string
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	var built []string
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(built, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", listed, built)
	}
	for _, name := range listed {
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			cfg := smokeConfig(t, name, trace)
			if trace {
				cfg.spansOut = filepath.Join(t.TempDir(), "spans.json")
			}
			var out bytes.Buffer
			res, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			if !trace || name == "engine" {
				continue
			}
			f, err := readSpans(cfg.spansOut)
			if err != nil {
				t.Fatal(err)
			}
			rows := ledger(f)
			if len(rows) == 0 {
				t.Errorf("%s: traced run's spans give no ledger rows", name)
			}
			for _, r := range rows {
				if last := r.Parts[len(r.Parts)-1]; last.Name != "remainder" {
					t.Errorf("%s: ledger row %s %s ends with %s, want the remainder", name, r.Metric, r.Class, last.Name)
				}
			}
		}
	}
}

func TestQuantileRule(t *testing.T) {
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if v, beyond := quantile(thousand, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := quantile(thousand[:999], 0.99); beyond >= minBeyond {
		t.Errorf("p99 of 999 samples has %d beyond; the rule needs 1000 samples", beyond)
	}
	if v, beyond := quantile([]float64{1, 2, 3, 4}, 0.5); v != 2 || beyond != 2 {
		t.Errorf("p50 of 1..4 = %v with %d beyond, want 2 with 2", v, beyond)
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of nothing = %v, want NaN", v)
	}
	// A failed operation misses every latency limit.
	ms := latenciesMS([]sample{{lat: time.Millisecond}, {failed: true}, {lat: 2 * time.Millisecond}}, func(sample) bool { return true })
	if !math.IsInf(ms[2], 1) || ms[0] != 1 {
		t.Errorf("latencies = %v, want the failure last as +Inf", ms)
	}
	if got := finite(math.Inf(1), 20*time.Second); got != 20000 {
		t.Errorf("a failed percentile reads %v ms, want the 20000 ms window", got)
	}
	// The spread check uses Python's statistics.quantiles(data, n=4).
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quartiles(ten); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles of 1..10 = %v, want [2.75 5.5 8.25]", q)
	}
}

func TestSelfTimeWithNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request.fresh", Start: 0, End: 100},
		{ID: 2, Name: "service.storage.get", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "service.storage.put", Start: 50, End: 90, Parent: 1},
		{ID: 4, Name: "service.storage.list", Start: 60, End: 80, Parent: 3},
		{ID: 5, Name: "request.warm", Start: 0, End: 100},
		{ID: 6, Name: "service.storage.get", Start: 10, End: 40, Parent: 5},
		{ID: 7, Name: "service.storage.get", Start: 30, End: 60, Parent: 5},
	}
	ix := newSpanIndex(spans)
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 20, 4: 20, 5: 50} {
		if got := ix.selfTime(ix.byID[id]); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	parts := map[string]int64{}
	ix.descendantSelf(ix.byID[1], parts)
	if parts["service.storage.get"] != 30 || parts["service.storage.put"] != 20 || parts["service.storage.list"] != 20 {
		t.Errorf("descendant self times = %v", parts)
	}
}

func TestSpansLinkByKey(t *testing.T) {
	spans := []span{
		// Two overlapping requests for key k: first in, first served.
		{ID: 1, Name: "request.warm", Start: 0, End: 100, Req: "k"},
		{ID: 2, Name: "request.warm", Start: 5, End: 120, Req: "k"},
		{ID: 3, Name: "service.storage.fetch", Start: 20, End: 30, Req: "k"},
		{ID: 4, Name: "service.storage.fetch", Start: 40, End: 50, Req: "k"},
		// The leader's call inside the first fetch.
		{ID: 5, Name: "leader.storage.get", Start: 22, End: 28, Req: "k"},
		// A request for another key, waiting behind k's calls.
		{ID: 6, Name: "request.fresh", Start: 15, End: 90, Req: "f"},
		{ID: 7, Name: "service.storage.put", Start: 55, End: 60, Req: "f"},
		{ID: 8, Name: "service.storage.list", Start: 60, End: 80},
		// A call for a key no request covers stays a root.
		{ID: 9, Name: "service.storage.get", Start: 81, End: 82, Req: "z"},
	}
	link(spans)
	ix := newSpanIndex(spans)
	parent := func(id int) int { return ix.spans[ix.byID[id]].Parent }
	for id, want := range map[int]int{3: 1, 4: 2, 5: 3, 7: 6, 8: 7, 9: 0, 1: 0, 6: 0} {
		if got := parent(id); got != want {
			t.Errorf("span %d linked to %d, want %d", id, got, want)
		}
	}
	// Request f waited from its start (15) to its first call (55) while
	// k's fetches (20-30, 40-50) held the storage goroutine.
	if got := ix.waits()[ix.byID[6]]; got != 20 {
		t.Errorf("wait of request f = %d, want 20", got)
	}
}

// plannedKeys is every key a seed's workloads submit first: the pre-filled
// cells, the first requests of every client, and the engine's first runs.
func plannedKeys(t *testing.T, seed int64) []string {
	t.Helper()
	var keys []string
	hit, err := hitCells(seed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := singleCells("churn", seed, 50, 300)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := singleCells("tier", seed, 50, 3600)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []plan{hitPlan(seed, hit), churnPlan(seed, churn), tierPlan(seed, tier)} {
		for c := 0; c < numClients; c++ {
			for seq := 0; seq < 200; seq++ {
				r, err := p(c, seq)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, r.key)
			}
		}
	}
	for _, cells := range [][]request{hit, churn, tier} {
		for _, r := range cells {
			keys = append(keys, r.key)
		}
	}
	for r := 0; r < 10; r++ {
		spec, err := engineSpec(seed, r)
		if err != nil {
			t.Fatal(err)
		}
		k, err := keyed(spec, true)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.key)
	}
	return keys
}

func TestSeedDeterminism(t *testing.T) {
	a, b := plannedKeys(t, 1), plannedKeys(t, 1)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("the same seed planned different requests")
	}
	seen := map[string]bool{}
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range plannedKeys(t, 2) {
		if seen[k] {
			t.Fatalf("seeds 1 and 2 share key %s", k)
		}
	}
}

// TestEngineGoldens checks the committed goldens against the engine (run
// with -update to rewrite them after a deliberate outcome change).
func TestEngineGoldens(t *testing.T) {
	got := goldens{}
	for _, seed := range []int64{1, 2} {
		_, hashes, err := firstRound(seed, engineWorkers)
		if err != nil {
			t.Fatal(err)
		}
		got[strconv.FormatInt(seed, 10)] = hashes
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "engine_golden.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]string, 0, len(got))
	for s := range got {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	for _, s := range seeds {
		if strings.Join(got[s], ",") != strings.Join(want[s], ",") {
			t.Errorf("seed %s: engine outcome hashes %v, goldens %v", s, got[s], want[s])
		}
	}
}

func TestCorruptGoldenFailsTheRun(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]string(nil), g["1"]...)
	if len(bad) == 0 {
		t.Fatal("no goldens for seed 1")
	}
	bad[0] = strings.Repeat("0", 64)
	cfg := smokeConfig(t, "engine", false)
	cfg.window = 50 * time.Millisecond
	cfg.goldens = goldens{"1": bad}
	var out bytes.Buffer
	res, err := runWorkload(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatalf("a corrupted golden hash passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "differs from the golden") {
		t.Errorf("the report does not name the golden mismatch:\n%s", out.String())
	}
}

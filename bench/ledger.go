package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// The ledger explains each latency metric by its layers: for the requests
// around a percentile it lists the self time of every layer below the
// request, the time spent waiting for the storage goroutine, the replayed
// per-request steps the daemon runs inside the request, and whatever is
// left (loopback HTTP, the channel hop into storage, scheduling).

// spansFile is what a traced run writes with -spans and -ledger reads.
type spansFile struct {
	Workload string  `json:"workload"`
	SliceNS  int64   `json:"slice_ns"`
	Spans    []span  `json:"spans"`
	Replay   []entry `json:"replay"`
}

// entry is one named value, kept as a list so files are written in a
// fixed order.
type entry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// requestSteps are the replayed steps that run inside every service
// request, in request order.
var requestSteps = []string{
	"service.http.decode_us",
	"scenario.validate_us",
	"scenario.key_us",
	"service.http.encode_us",
	"service.client.decode_us",
}

// ledgerRow is one latency metric split into parts.
type ledgerRow struct {
	Metric  string
	Class   string
	N       int
	TotalMS float64
	Parts   []entry // milliseconds, in print order; the last is the remainder
}

// percentile bands: the requests whose latency rank falls in [lo, hi).
var ledgerBands = []struct {
	metric string
	lo, hi float64
}{
	{"op_p50_ms", 0.45, 0.55},
	{"op_p99_ms", 0.98, 1},
}

// ledger computes the rows of a traced run: one per latency metric and
// request class (warm, fresh, or engine run kind), from the requests that
// ran wholly inside a traced slice.
func ledger(f spansFile) []ledgerRow {
	ix := newSpanIndex(f.Spans)
	waits := ix.waits()
	inSlice := func(s span) bool {
		return f.SliceNS <= 0 || s.Start/f.SliceNS == s.End/f.SliceNS
	}
	byClass := map[string][]int{}
	for i, s := range f.Spans {
		if spanLevel(s.Name) == 0 && inSlice(s) {
			byClass[s.Name] = append(byClass[s.Name], i)
		}
	}
	replay := map[string]float64{}
	for _, e := range f.Replay {
		replay[e.Name] = e.Value
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	var rows []ledgerRow
	for _, band := range ledgerBands {
		for _, class := range classes {
			reqs := byClass[class]
			sort.Slice(reqs, func(a, b int) bool { return f.Spans[reqs[a]].dur() < f.Spans[reqs[b]].dur() })
			lo := int(band.lo * float64(len(reqs)))
			hi := max(lo+1, int(math.Ceil(band.hi*float64(len(reqs)))))
			if lo >= len(reqs) {
				continue
			}
			hi = min(hi, len(reqs))
			rows = append(rows, ledgerBand(ix, waits, replay, band.metric, class, reqs[lo:hi]))
		}
	}
	return rows
}

// ledgerBand averages the parts of one band of requests.
func ledgerBand(ix *spanIndex, waits map[int]int64, replay map[string]float64, metric, class string, reqs []int) ledgerRow {
	var total, wait int64
	self := map[string]int64{}
	for _, i := range reqs {
		total += ix.spans[i].dur()
		wait += waits[i]
		ix.descendantSelf(i, self)
	}
	n := float64(len(reqs))
	ms := func(ns int64) float64 { return float64(ns) / n / float64(time.Millisecond) }
	row := ledgerRow{Metric: metric, Class: class, N: len(reqs), TotalMS: ms(total)}
	rest := row.TotalMS
	add := func(name string, v float64) {
		row.Parts = append(row.Parts, entry{Name: name, Value: v})
		rest -= v
	}
	if strings.HasPrefix(class, spanRequest) {
		for _, step := range requestSteps {
			if v, ok := replay[step]; ok {
				add(strings.TrimSuffix(step, "_us"), v/1000)
			}
		}
		add("service.storage.wait", ms(wait))
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(name, ms(self[name]))
	}
	row.Parts = append(row.Parts, entry{Name: "remainder", Value: rest})
	return row
}

// printLedger writes the rows for one workload.
func printLedger(w io.Writer, workload string, rows []ledgerRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "ledger %s %s %s: %.4f ms over %d requests\n", workload, r.Metric, r.Class, r.TotalMS, r.N)
		for _, p := range r.Parts {
			fmt.Fprintf(w, "  %-32s %9.4f ms\n", p.Name, p.Value)
		}
	}
	if workload == "engine" {
		fmt.Fprintln(w, "ledger engine: runs have no layers below them here; the sim.*, sensor.*, thermal.*, core.*, power.*, fleet.* and coord.* metrics split them")
	}
}

// writeSpans writes a traced run's spans file.
func writeSpans(path string, f spansFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readSpans reads a spans file written by a traced run.
func readSpans(path string) (spansFile, error) {
	var f spansFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("decoding %s: %w", path, err)
	}
	return f, nil
}

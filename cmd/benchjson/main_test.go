package main

import (
	"fmt"
	"strings"
	"testing"
)

// rounds is raw bench output: one round per ns/op value, each with the
// given allocs/op.
func rounds(t *testing.T, allocs int, ns ...float64) Document {
	t.Helper()
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "BenchmarkX-2 \t 100 \t %g ns/op \t 16 B/op \t %d allocs/op\n", v, allocs)
	}
	doc, err := parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestABCompare: pairs fail on a median slowdown past the threshold in
// nine pairs of ten or more, or on one more allocation per op in most
// rounds, and pass within the threshold, with fewer slow pairs, with one
// round reading an allocation more, or with fewer allocations.
func TestABCompare(t *testing.T) {
	base := rounds(t, 5, 100, 110, 90, 100, 105, 100, 110, 90, 100, 105)
	jittered := withAllocs(base, 5, 3, 7)
	for _, tc := range []struct {
		name string
		head Document
		fail bool
	}{
		{"same", base, false},
		{"within", rounds(t, 5, 104, 112, 95, 103, 110, 104, 112, 95, 103, 110), false},
		{"slower", rounds(t, 5, 115, 125, 104, 116, 121, 115, 125, 104, 116, 121), true},
		{"slower in nine", rounds(t, 5, 115, 125, 104, 116, 121, 115, 125, 104, 116, 100), true},
		{"slower in eight", rounds(t, 5, 115, 125, 104, 116, 121, 115, 125, 104, 90, 100), false},
		{"one slow pair", rounds(t, 5, 100, 110, 90, 100, 300, 100, 110, 90, 100, 105), false},
		{"more allocs", withAllocs(base, 6), true},
		{"more allocs in nine rounds", withAllocs(base, 5, 0, 1, 2, 4, 5, 6, 7, 8, 9), true},
		{"more allocs in one round", withAllocs(base, 5, 3), false},
		{"fewer allocs", withAllocs(base, 4), false},
	} {
		if got := abCompare(base, tc.head, 0.1); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
	// Both sides jitter by one allocation in some rounds.
	for _, tc := range []struct {
		name string
		head Document
		fail bool
	}{
		{"same jitter", withAllocs(base, 5, 1, 4, 8), false},
		{"more allocs", withAllocs(base, 6, 2, 5), true},
	} {
		if got := abCompare(jittered, tc.head, 0.1); got != tc.fail {
			t.Errorf("jittered base, %s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

// withAllocs is a copy of doc with every result's allocs/op set to n, but
// for the listed rounds, which read one more.
func withAllocs(doc Document, n float64, plusOne ...int) Document {
	out := Document{Benchmarks: append([]Result(nil), doc.Benchmarks...)}
	for i := range out.Benchmarks {
		out.Benchmarks[i].AllocsPerOp = &n
	}
	more := n + 1
	for _, i := range plusOne {
		out.Benchmarks[i].AllocsPerOp = &more
	}
	return out
}

// TestQuartiles: linear interpolation between order statistics.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{1, 2}); med != 1.5 {
		t.Errorf("median of 1, 2 = %v, want 1.5", med)
	}
}

// Package trace provides the one time-series type of the simulator: the
// engines record into it, scenario outcomes store and serve it as JSON,
// and its CSV export and terminal plotting render every paper figure
// without external tooling.
package trace

import (
	"fmt"
	"math"
	"sort"
)

// Series is an append-only time series with non-decreasing timestamps,
// held as parallel time and value slices. Its JSON form is the stored
// outcome format: {"name": ..., "t": [...], "v": [...]}.
type Series struct {
	Name string    `json:"name"`
	T    []float64 `json:"t"` // simulation time in seconds
	V    []float64 `json:"v"` // signal value
}

// NewSeries returns an empty named series with room for n samples, so a
// recorder with a known horizon (one append per simulated tick) never
// reallocates mid-run. The slices are non-nil even for n = 0, so an empty
// recording encodes as "t":[],"v":[].
func NewSeries(name string, n int) Series {
	return Series{Name: name, T: make([]float64, 0, n), V: make([]float64, 0, n)}
}

// Reset truncates the series to zero samples while keeping its capacity,
// so a warm recorder (the lockstep engine re-stepping a batch) reuses its
// storage run after run with zero steady-state allocations.
func (s *Series) Reset() { s.T, s.V = s.T[:0], s.V[:0] }

// Append adds a sample. Timestamps must be non-decreasing and finite.
func (s *Series) Append(t, v float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("trace: non-finite timestamp %v", t)
	}
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		return fmt.Errorf("trace: timestamp %v precedes %v", t, s.T[n-1])
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
	return nil
}

// MustAppend is Append that panics on error; recorders use it on internally
// generated monotone clocks where failure is a programming error.
func (s *Series) MustAppend(t, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Window returns the sub-series with t in [t0, t1]. The returned series
// shares no storage with s.
func (s *Series) Window(t0, t1 float64) Series {
	out := Series{Name: s.Name}
	for i, t := range s.T {
		if t >= t0 && t <= t1 {
			out.T = append(out.T, t)
			out.V = append(out.V, s.V[i])
		}
	}
	return out
}

// ValueAt returns the sample value at time t using zero-order hold (the
// last sample at or before t). ok is false if t precedes the first sample
// or the series is empty.
func (s *Series) ValueAt(t float64) (v float64, ok bool) {
	i := sort.Search(len(s.T), func(i int) bool { return s.T[i] > t })
	if i == 0 {
		return 0, false
	}
	return s.V[i-1], true
}

// Crossings returns the times at which the series crosses the given level,
// with linear interpolation between samples. Touching the level exactly
// counts once.
func (s *Series) Crossings(level float64) []float64 {
	var out []float64
	for i := 1; i < len(s.T); i++ {
		da, db := s.V[i-1]-level, s.V[i]-level
		if da == 0 {
			if i == 1 || s.V[i-2]-level != 0 {
				out = append(out, s.T[i-1])
			}
			continue
		}
		if da*db < 0 {
			frac := da / (s.V[i-1] - s.V[i])
			out = append(out, s.T[i-1]+frac*(s.T[i]-s.T[i-1]))
		}
	}
	if n := len(s.T); n > 0 && s.V[n-1] == level {
		if n == 1 || s.V[n-2] != level {
			out = append(out, s.T[n-1])
		}
	}
	return out
}

// SettlingTime returns the earliest time after which the series stays
// within ±band of target forever (within the recorded horizon). ok is
// false if the series never settles or is empty.
func (s *Series) SettlingTime(target, band float64) (t float64, ok bool) {
	if len(s.T) == 0 {
		return 0, false
	}
	// Walk backward to find the last excursion outside the band.
	lastOutside := -1
	for i := len(s.T) - 1; i >= 0; i-- {
		if math.Abs(s.V[i]-target) > band {
			lastOutside = i
			break
		}
	}
	if lastOutside == len(s.T)-1 {
		return 0, false // still outside at the end
	}
	return s.T[lastOutside+1], true
}

// Set is an ordered collection of series sharing a time base, e.g. all
// recorded signals of one simulation run in recording order.
type Set []Series

// ShareTime gives every series of a finished recording the time axis of
// its last series. A recorder whose samples share one clock appends each
// timestamp to the last series alone, values only to the others, and
// calls ShareTime when it is done: the set then stores one time axis,
// yet every series still carries (and encodes) its own T.
func (st Set) ShareTime() {
	for i := range st {
		st[i].T = st[len(st)-1].T
	}
}

// Get returns the named series, or nil. The result points into the set.
func (st Set) Get(name string) *Series {
	for i := range st {
		if st[i].Name == name {
			return &st[i]
		}
	}
	return nil
}

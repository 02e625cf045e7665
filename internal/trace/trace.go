// Package trace provides the time-series container used throughout the
// simulator for recorded signals (temperatures, fan speeds, utilizations),
// plus CSV export and terminal plotting so every paper figure can be
// rendered without external tooling.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrMismatch is returned when paired time/value inputs differ in length.
var ErrMismatch = errors.New("trace: time and value lengths differ")

// Point is one sample of a time series.
type Point struct {
	T float64 // simulation time in seconds
	V float64 // signal value
}

// Series is an append-only time series with non-decreasing timestamps.
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewSeriesCap returns an empty named series preallocated for n samples,
// so recorders with a known horizon (one append per simulated tick) never
// reallocate mid-run. n <= 0 degenerates to NewSeries.
func NewSeriesCap(name string, n int) *Series {
	if n <= 0 {
		return NewSeries(name)
	}
	return &Series{Name: name, points: make([]Point, 0, n)}
}

// Reset truncates the series to zero samples while keeping its capacity,
// so a warm recorder (the lockstep engine re-stepping a batch) reuses its
// storage run after run with zero steady-state allocations.
func (s *Series) Reset() { s.points = s.points[:0] }

// FromSlices builds a series from parallel time and value slices.
func FromSlices(name string, ts, vs []float64) (*Series, error) {
	if len(ts) != len(vs) {
		return nil, ErrMismatch
	}
	s := NewSeries(name)
	for i := range ts {
		if err := s.Append(ts[i], vs[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Append adds a sample. Timestamps must be non-decreasing and finite.
func (s *Series) Append(t, v float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("trace: non-finite timestamp %v", t)
	}
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		return fmt.Errorf("trace: timestamp %v precedes %v", t, s.points[n-1].T)
	}
	s.points = append(s.points, Point{T: t, V: v})
	return nil
}

// MustAppend is Append that panics on error; recorders use it on internally
// generated monotone clocks where failure is a programming error.
func (s *Series) MustAppend(t, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// Times returns a copy of all timestamps.
func (s *Series) Times() []float64 {
	ts := make([]float64, len(s.points))
	for i, p := range s.points {
		ts[i] = p.T
	}
	return ts
}

// Values returns a copy of all values.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.points))
	for i, p := range s.points {
		vs[i] = p.V
	}
	return vs
}

// Window returns the sub-series with t in [t0, t1]. The returned series
// shares no storage with s.
func (s *Series) Window(t0, t1 float64) *Series {
	out := NewSeries(s.Name)
	for _, p := range s.points {
		if p.T >= t0 && p.T <= t1 {
			out.points = append(out.points, p)
		}
	}
	return out
}

// ValueAt returns the sample value at time t using zero-order hold (the
// last sample at or before t). ok is false if t precedes the first sample
// or the series is empty.
func (s *Series) ValueAt(t float64) (v float64, ok bool) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].V, true
}

// Crossings returns the times at which the series crosses the given level,
// with linear interpolation between samples. Touching the level exactly
// counts once.
func (s *Series) Crossings(level float64) []float64 {
	var out []float64
	for i := 1; i < len(s.points); i++ {
		a, b := s.points[i-1], s.points[i]
		da, db := a.V-level, b.V-level
		if da == 0 {
			if i == 1 || s.points[i-2].V-level != 0 {
				out = append(out, a.T)
			}
			continue
		}
		if da*db < 0 {
			frac := da / (a.V - b.V)
			out = append(out, a.T+frac*(b.T-a.T))
		}
	}
	if n := len(s.points); n > 0 && s.points[n-1].V == level {
		if n == 1 || s.points[n-2].V != level {
			out = append(out, s.points[n-1].T)
		}
	}
	return out
}

// SettlingTime returns the earliest time after which the series stays
// within ±band of target forever (within the recorded horizon). ok is
// false if the series never settles or is empty.
func (s *Series) SettlingTime(target, band float64) (t float64, ok bool) {
	if len(s.points) == 0 {
		return 0, false
	}
	// Walk backward to find the last excursion outside the band.
	lastOutside := -1
	for i := len(s.points) - 1; i >= 0; i-- {
		if math.Abs(s.points[i].V-target) > band {
			lastOutside = i
			break
		}
	}
	if lastOutside == len(s.points)-1 {
		return 0, false // still outside at the end
	}
	return s.points[lastOutside+1].T, true
}

// Set is an ordered collection of series sharing a time base, e.g. all
// recorded signals of one simulation run.
type Set struct {
	order []string
	byKey map[string]*Series
}

// NewSet returns an empty series set.
func NewSet() *Set { return &Set{byKey: make(map[string]*Series)} }

// Add registers a series under its name, replacing any previous series
// with the same name while preserving its position.
func (st *Set) Add(s *Series) {
	if _, exists := st.byKey[s.Name]; !exists {
		st.order = append(st.order, s.Name)
	}
	st.byKey[s.Name] = s
}

// Get returns the named series, or nil.
func (st *Set) Get(name string) *Series { return st.byKey[name] }

// Names returns the series names in insertion order.
func (st *Set) Names() []string { return append([]string(nil), st.order...) }

// Len returns the number of series.
func (st *Set) Len() int { return len(st.order) }

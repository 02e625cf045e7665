// Package stats provides the small statistics toolkit used across the
// simulator: descriptive statistics, peak detection (for oscillation
// period and amplitude), counter-based hashing for seeded streams, and a
// deterministic Gaussian random source.
//
// Everything operates on []float64 and is allocation-conscious; the control
// loops call these helpers every decision period.
package stats

import (
	"errors"
	"math"
	"math/rand"
)

// ErrEmpty is returned by reducers that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or 0 for
// fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest elements of xs.
// It returns ErrEmpty on empty input.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Rand is the deterministic random source used by the whole simulator. It
// wraps math/rand with an explicit seed so every experiment is reproducible,
// and adds the Gaussian helper the workload generators need.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation. Negative sigma panics.
func (g *Rand) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic("stats: negative sigma")
	}
	return mean + sigma*g.r.NormFloat64()
}

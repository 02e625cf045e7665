// Package workload generates the CPU utilization traces that drive the
// simulator. The paper's evaluation (Sec. VI-A) uses synthetic traces that
// alternate between 0.1 and 0.7 with additive Gaussian noise (σ = 0.04);
// this package provides that construction plus the spike patterns that
// motivate the single-step fan scaler (Sec. V-C, citing [20]), and several
// generic generators (constant, step, PRBS, Markov-modulated) that
// specs name from the scenario vocabulary.
//
// A Generator maps simulation time to the utilization the workload demands.
// Generators are deterministic: the same generator asked at the same time
// always returns the same value, so controllers under test can be replayed
// exactly.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/units"
)

// Generator yields the required CPU utilization at simulation time t.
type Generator interface {
	At(t units.Seconds) units.Utilization
}

// Constant is a fixed-utilization workload.
type Constant struct {
	U units.Utilization
}

// At implements Generator.
func (c Constant) At(units.Seconds) units.Utilization { return units.ClampUtil(c.U) }

// Square alternates between Low and High with the given period, starting
// at Low: u(t) = Low for t in [0, Period/2), High for [Period/2, Period).
type Square struct {
	Low, High units.Utilization
	Period    units.Seconds
}

// NewSquare validates and builds a square-wave workload.
func NewSquare(low, high units.Utilization, period units.Seconds) (Square, error) {
	if period <= 0 {
		return Square{}, fmt.Errorf("workload: non-positive period %v", period)
	}
	if low < 0 || low > 1 || high < 0 || high > 1 {
		return Square{}, fmt.Errorf("workload: utilizations [%v, %v] outside [0, 1]", low, high)
	}
	return Square{Low: low, High: high, Period: period}, nil
}

// PaperSquare returns the evaluation workload of Sec. VI-A: alternating
// 0.1 / 0.7 with the given period.
func PaperSquare(period units.Seconds) Square {
	s, err := NewSquare(0.1, 0.7, period)
	if err != nil {
		panic(err) // constants are valid
	}
	return s
}

// At implements Generator.
func (s Square) At(t units.Seconds) units.Utilization {
	if t < 0 {
		t = 0
	}
	phase := math.Mod(float64(t), float64(s.Period))
	if phase < float64(s.Period)/2 {
		return s.Low
	}
	return s.High
}

// Step jumps from Before to After at time At.
type Step struct {
	Before, After units.Utilization
	Time          units.Seconds
}

// At implements Generator.
func (s Step) At(t units.Seconds) units.Utilization {
	if t < s.Time {
		return units.ClampUtil(s.Before)
	}
	return units.ClampUtil(s.After)
}

// Noisy overlays zero-mean Gaussian noise (σ = Sigma) on a base generator,
// clamped to [0, 1]. Noise is drawn per discrete tick of width Tick so that
// At is deterministic in t: the same tick always sees the same noise value.
type Noisy struct {
	Base  Generator
	Sigma float64
	Tick  units.Seconds
	seed  int64
}

// NewNoisy validates and builds a noisy overlay. Tick must be positive;
// the paper's simulation draws noise per 1 s control tick.
func NewNoisy(base Generator, sigma float64, tick units.Seconds, seed int64) (*Noisy, error) {
	if base == nil {
		return nil, fmt.Errorf("workload: nil base generator")
	}
	if sigma < 0 {
		return nil, fmt.Errorf("workload: negative sigma %v", sigma)
	}
	if tick <= 0 {
		return nil, fmt.Errorf("workload: non-positive tick %v", tick)
	}
	return &Noisy{Base: base, Sigma: sigma, Tick: tick, seed: seed}, nil
}

// At implements Generator. The noise for tick k is produced by a
// tick-indexed hash of the seed, so queries are random-access
// deterministic rather than stream-order dependent.
func (n *Noisy) At(t units.Seconds) units.Utilization {
	base := float64(n.Base.At(t))
	if n.Sigma == 0 {
		return units.ClampUtil(units.Utilization(base))
	}
	k := int64(math.Floor(float64(t) / float64(n.Tick)))
	v := base + n.Sigma*stats.HashNormal(n.seed, k)
	return units.ClampUtil(units.Utilization(v))
}

// Spike is one transient utilization burst.
type Spike struct {
	Start    units.Seconds
	Duration units.Seconds
	Level    units.Utilization
}

// Spiky overlays deterministic spikes on a base generator: during a spike
// the demand is max(base, spike level). The single-step fan scaling
// experiment uses it to model the abrupt load surges of [20].
//
// NewSpiky precompiles the (possibly overlapping) spikes into a sorted
// piecewise-constant schedule of boundary times and active max levels, so
// At is an allocation-free O(log n) binary search instead of a per-tick
// scan over every spike — Table III queries the generator once per
// simulated second for hours.
type Spiky struct {
	Base   Generator
	Spikes []Spike

	// Compiled schedule: segT[k] begins a segment where the strongest
	// active spike level is segLevel[k]; the segment ends at segT[k+1]
	// (the last segment has level 0 and extends to infinity). Empty for a
	// zero-value Spiky, in which case At falls back to scanning Spikes.
	segT     []units.Seconds
	segLevel []units.Utilization
}

// NewSpiky validates and builds a spike overlay.
func NewSpiky(base Generator, spikes []Spike) (*Spiky, error) {
	if base == nil {
		return nil, fmt.Errorf("workload: nil base generator")
	}
	for i, s := range spikes {
		if s.Duration <= 0 {
			return nil, fmt.Errorf("workload: spike %d has non-positive duration %v", i, s.Duration)
		}
		if s.Level < 0 || s.Level > 1 {
			return nil, fmt.Errorf("workload: spike %d level %v outside [0, 1]", i, s.Level)
		}
	}
	sp := &Spiky{Base: base, Spikes: spikes}
	sp.compile()
	return sp, nil
}

// compile builds the sorted segment schedule from the spike list.
func (s *Spiky) compile() {
	if len(s.Spikes) == 0 {
		s.segT, s.segLevel = nil, nil
		return
	}
	// Collect the segment boundaries: every spike start and end.
	bounds := make([]units.Seconds, 0, 2*len(s.Spikes))
	for _, sp := range s.Spikes {
		bounds = append(bounds, sp.Start, sp.Start+sp.Duration)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	// For each segment [uniq[k], uniq[k+1]) record the strongest level of
	// any covering spike; the final boundary opens an unbounded level-0
	// segment. Construction cost is O(spikes × segments), paid once.
	s.segT = uniq
	s.segLevel = make([]units.Utilization, len(uniq))
	for k := 0; k < len(uniq)-1; k++ {
		at := uniq[k]
		level := units.Utilization(0)
		for _, sp := range s.Spikes {
			if at >= sp.Start && at < sp.Start+sp.Duration && sp.Level > level {
				level = sp.Level
			}
		}
		s.segLevel[k] = level
	}
}

// PeriodicSpikes builds count spikes of the given level and duration,
// spaced every interval starting at first.
func PeriodicSpikes(first, interval, duration units.Seconds, level units.Utilization, count int) []Spike {
	spikes := make([]Spike, 0, count)
	for i := 0; i < count; i++ {
		spikes = append(spikes, Spike{
			Start:    first + units.Seconds(i)*interval,
			Duration: duration,
			Level:    level,
		})
	}
	return spikes
}

// At implements Generator.
func (s *Spiky) At(t units.Seconds) units.Utilization {
	u := s.Base.At(t)
	if s.segT == nil {
		// Zero-value construction without NewSpiky: scan directly.
		for _, sp := range s.Spikes {
			if t >= sp.Start && t < sp.Start+sp.Duration && sp.Level > u {
				u = sp.Level
			}
		}
		return u
	}
	if t < s.segT[0] {
		return u
	}
	// Binary search for the last boundary at or before t.
	lo, hi := 0, len(s.segT)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.segT[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if level := s.segLevel[lo-1]; level > u {
		u = level
	}
	return u
}

// PRBS is a pseudo-random binary sequence between Low and High, switching
// at Dwell-second boundaries with 50% probability, deterministic per seed.
// Control engineers use PRBS excitation for identification experiments;
// the tuner tests use it to stress controllers across frequencies.
type PRBS struct {
	Low, High units.Utilization
	Dwell     units.Seconds
	Seed      int64
}

// At implements Generator.
func (p PRBS) At(t units.Seconds) units.Utilization {
	if p.Dwell <= 0 {
		return units.ClampUtil(p.Low)
	}
	k := int64(math.Floor(float64(t) / float64(p.Dwell)))
	if stats.HashUniform(p.Seed, k) < 0.5 {
		return units.ClampUtil(p.Low)
	}
	return units.ClampUtil(p.High)
}

// Markov is a two-state Markov-modulated workload (busy/idle) with
// per-dwell transition probabilities, deterministic per seed. It produces
// the bursty long-tailed busy periods typical of server traces.
type Markov struct {
	IdleU, BusyU units.Utilization
	Dwell        units.Seconds
	PIdleToBusy  float64
	PBusyToIdle  float64
	Seed         int64
}

// At implements Generator. State is reconstructed by replaying transitions
// from t = 0, which keeps the generator deterministic and stateless at the
// cost of O(t / Dwell) work; simulation horizons keep this cheap.
func (m Markov) At(t units.Seconds) units.Utilization {
	if m.Dwell <= 0 {
		return units.ClampUtil(m.IdleU)
	}
	k := int64(math.Floor(float64(t) / float64(m.Dwell)))
	busy := false
	for i := int64(0); i <= k; i++ {
		p := stats.HashUniform(m.Seed, i)
		if busy {
			if p < m.PBusyToIdle {
				busy = false
			}
		} else {
			if p < m.PIdleToBusy {
				busy = true
			}
		}
	}
	if busy {
		return units.ClampUtil(m.BusyU)
	}
	return units.ClampUtil(m.IdleU)
}

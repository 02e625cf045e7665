package sensor

import (
	"fmt"

	"repro/internal/units"
)

// Health is the fused sensor's self-assessment, exported so the policy
// layer can escalate: OK while a quorum of plausible, mutually agreeing
// replicas exists; Hold while disagreement is fresh enough that the last
// good fused value is still trustworthy; FailSafe once disagreement has
// persisted past the hold budget and the reading must no longer be used
// for closed-loop control.
type Health int

const (
	HealthOK Health = iota
	HealthHold
	HealthFailSafe
)

func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthHold:
		return "hold"
	case HealthFailSafe:
		return "failsafe"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// The voter's fixed parameters. A fused reading counts as good when a
// strict majority of the replicas survives the plausibility checks and
// outlier rejection.
const (
	// maxSlewCPerS is the plausibility bound on per-replica reading
	// movement. Real silicon junctions move a few °C/s at most (Table I
	// thermal time constants); a reading jumping faster than this is a
	// transport glitch, not physics. Deliberately generous so a frozen
	// replica (slew 0) passes plausibility and is caught by outlier
	// rejection instead.
	maxSlewCPerS = 20.0
	// outlierBoundC is the maximum distance (°C) from the replica median
	// before a plausible reading is voted out as an outlier.
	outlierBoundC = 3.0
	// holdBudgetTicks is how many consecutive quorum failures are bridged
	// by hold-last-good before the voter latches FailSafe.
	holdBudgetTicks = 30
)

// RedundantConfig parameterizes the fusion stage: its plausibility range,
// which callers take from the ADC configuration of the chains being
// fused.
type RedundantConfig struct {
	// RangeMin/RangeMax bound plausible readings (°C); anything outside
	// is rejected before voting. Both zero selects 0..255 (the Table I
	// 8-bit ADC span).
	RangeMin float64
	RangeMax float64
}

// Redundant fuses N independently built measurement chains observing the
// same true temperature into one trustworthy reading: per-sample
// plausibility checks (range + slew vs. physical limits), median voting
// with outlier rejection among the survivors, hold-last-good across
// transient disagreement, and a latched FailSafe health once disagreement
// outlives the hold budget. It implements Stage so it drops into a
// Pipeline wherever a single chain did, and PowerAware so power-density
// stages (PlacementOffset) inside the replica chains keep seeing CPU
// power.
//
// All voting scratch is preallocated: Sample is allocation-free in steady
// state, preserving the zero-alloc tick contract with redundancy armed.
type Redundant struct {
	chains  []Stage
	powered []PowerAware

	// rangeMin and rangeMax come from the config; the rest start at the
	// fixed parameters (tests shorten them after construction).
	rangeMin  float64
	rangeMax  float64
	maxSlew   float64
	outlierC  float64
	quorum    int
	holdTicks int

	// scratch (capacity len(chains), reused every tick)
	readings  []float64
	plausible []float64
	survivors []float64
	fallback  []float64

	// per-replica slew-plausibility state
	prev   []float64
	primed []bool
	lastT  units.Seconds
	hasT   bool

	lastGood float64
	goodSet  bool
	disagree int
	health   Health

	rejectedTicks int // replica-samples rejected (implausible or outlier)
	quorumFails   int // ticks where no quorum survived
	failSafeTicks int // ticks spent in FailSafe
}

// NewRedundant builds the fusion stage over the given replica chains
// (typically *Pipeline values over independently seeded fault chains).
// At least 3 chains are required — with fewer, median voting cannot
// outvote a single wedged replica.
func NewRedundant(cfg RedundantConfig, chains ...Stage) (*Redundant, error) {
	n := len(chains)
	if n < 3 {
		return nil, fmt.Errorf("sensor: redundant array needs >= 3 chains, got %d", n)
	}
	for i, c := range chains {
		if c == nil {
			return nil, fmt.Errorf("sensor: redundant chain %d is nil", i)
		}
	}
	min, max := cfg.RangeMin, cfg.RangeMax
	if min == 0 && max == 0 {
		min, max = 0, 255
	}
	if !(max > min) {
		return nil, fmt.Errorf("sensor: redundant plausibility range [%g, %g] is empty", min, max)
	}
	r := &Redundant{
		chains:    chains,
		rangeMin:  min,
		rangeMax:  max,
		maxSlew:   maxSlewCPerS,
		outlierC:  outlierBoundC,
		quorum:    n/2 + 1,
		holdTicks: holdBudgetTicks,
		readings:  make([]float64, n),
		plausible: make([]float64, 0, n),
		survivors: make([]float64, 0, n),
		fallback:  make([]float64, 0, n),
		prev:      make([]float64, n),
		primed:    make([]bool, n),
	}
	// Collect power-aware replicas once, mirroring NewPipeline: nested
	// pipelines are included only when they actually contain a
	// power-density stage, so ObservePower fan-out skips inert chains.
	for _, c := range chains {
		switch s := c.(type) {
		case *Pipeline:
			if s.NeedsPower() {
				r.powered = append(r.powered, s)
			}
		case *Redundant:
			if s.NeedsPower() {
				r.powered = append(r.powered, s)
			}
		case PowerAware:
			r.powered = append(r.powered, s)
		}
	}
	return r, nil
}

// Sample feeds the true value through every replica chain and fuses the
// readings. The fused value is the median of the plausible, non-outlier
// survivors when a quorum exists; otherwise the last good fused value
// (hold-last-good), falling back to the median of the finite raw readings
// if no good value was ever produced, and to RangeMax, the reading that
// drives the fans up, if no reading is finite. The fused value is always
// finite.
func (r *Redundant) Sample(t units.Seconds, v float64) float64 {
	dt := units.Seconds(0)
	if r.hasT && t > r.lastT {
		dt = t - r.lastT
	}
	r.lastT = t
	r.hasT = true

	for i, c := range r.chains {
		r.readings[i] = c.Sample(t, v)
	}

	// Plausibility: range, then per-replica slew against the previous
	// reading. prev is updated from the raw reading every tick even when
	// rejected, so a replica recovering from a wedged value pays one
	// implausible tick, not a permanently drifting reference.
	r.plausible = r.plausible[:0]
	for i, ri := range r.readings {
		ok := ri >= r.rangeMin && ri <= r.rangeMax
		if ok && r.primed[i] && dt > 0 {
			bound := r.maxSlew * float64(dt)
			if d := ri - r.prev[i]; d > bound || d < -bound {
				ok = false
			}
		}
		r.prev[i] = ri
		r.primed[i] = true
		if ok {
			r.plausible = append(r.plausible, ri)
		} else {
			r.rejectedTicks++
		}
	}

	if fused, ok := r.vote(); ok {
		r.disagree = 0
		r.health = HealthOK
		r.lastGood = fused
		r.goodSet = true
		return fused
	}

	r.quorumFails++
	r.disagree++
	if r.disagree > r.holdTicks {
		r.health = HealthFailSafe
		r.failSafeTicks++
	} else {
		r.health = HealthHold
	}
	if r.goodSet {
		return r.lastGood
	}
	// Never agreed since Reset: the raw median is the least-bad reading.
	// A NaN would not sort, and the median could land on it.
	r.fallback = r.fallback[:0]
	for _, x := range r.readings {
		if units.IsFinite(x) {
			r.fallback = append(r.fallback, x)
		}
	}
	if len(r.fallback) == 0 {
		return r.rangeMax
	}
	insertionSort(r.fallback)
	return medianSorted(r.fallback)
}

// vote runs median + outlier rejection over the plausible readings and
// reports whether a quorum survived.
func (r *Redundant) vote() (float64, bool) {
	if len(r.plausible) < r.quorum {
		return 0, false
	}
	insertionSort(r.plausible)
	med := medianSorted(r.plausible)
	r.survivors = r.survivors[:0]
	for _, x := range r.plausible {
		if d := x - med; d <= r.outlierC && d >= -r.outlierC {
			r.survivors = append(r.survivors, x)
		} else {
			r.rejectedTicks++
		}
	}
	if len(r.survivors) < r.quorum {
		return 0, false
	}
	// Filtering a sorted slice preserves order, so the median is direct.
	return medianSorted(r.survivors), true
}

// Reset restores construction state on the voter and every replica chain
// so a warm re-run replays the identical fused sequence.
func (r *Redundant) Reset() {
	for _, c := range r.chains {
		c.Reset()
	}
	for i := range r.prev {
		r.prev[i] = 0
		r.primed[i] = false
	}
	r.lastT, r.hasT = 0, false
	r.lastGood, r.goodSet = 0, false
	r.disagree = 0
	r.health = HealthOK
	r.rejectedTicks, r.quorumFails, r.failSafeTicks = 0, 0, 0
}

// NeedsPower reports whether any replica chain contains a power-density
// stage.
func (r *Redundant) NeedsPower() bool { return len(r.powered) > 0 }

// ObservePower forwards the current CPU power draw to every power-aware
// replica chain.
func (r *Redundant) ObservePower(w float64) {
	for _, s := range r.powered {
		s.ObservePower(w)
	}
}

// Health returns the voter's current self-assessment.
func (r *Redundant) Health() Health { return r.health }

// insertionSort sorts a short slice in place without allocating — replica
// counts are single digits, where insertion sort beats sort.Float64s and
// keeps the fused sample heap-free.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// medianSorted returns the median of an already-sorted, non-empty slice
// (mean of the two middles for even lengths, halved before the sum so two
// finite middles near the float64 limit cannot overflow).
func medianSorted(a []float64) float64 {
	n := len(a)
	if n%2 == 1 {
		return a[n/2]
	}
	return 0.5*a[n/2-1] + 0.5*a[n/2]
}

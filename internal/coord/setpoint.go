package coord

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/units"
)

// SetpointScheduler is the predictive T_ref adjustment of Sec. V-B: the
// fan controller's reference temperature scales linearly with the
// moving-average-predicted CPU utilization,
//
//	T_ref(k) = T_lo + (T_hi − T_lo) · û(k),
//
// so a lightly loaded server keeps a cold set-point (fan headroom against
// sudden load spikes: the spike lands on a cool die) while a busy server
// relaxes the set-point (the fan's cubic power is spent only when the
// extra headroom buys nothing — demand is already near its ceiling).
type SetpointScheduler struct {
	Lo, Hi units.Celsius
	pred   *filter.MAPredictor
	last   units.Celsius
}

// NewSetpointScheduler builds a scheduler over the paper's 70–80 °C band
// with a moving-average predictor of the given window (in CPU ticks,
// following [19]).
func NewSetpointScheduler(lo, hi units.Celsius, window int) (*SetpointScheduler, error) {
	if hi <= lo {
		return nil, fmt.Errorf("coord: setpoint band [%v, %v] empty", lo, hi)
	}
	if window < 1 {
		return nil, fmt.Errorf("coord: predictor window %d < 1", window)
	}
	return &SetpointScheduler{Lo: lo, Hi: hi, pred: filter.NewMAPredictor(window), last: lo}, nil
}

// Observe feeds one utilization sample (called every CPU tick) and
// returns the scheduled reference temperature.
func (s *SetpointScheduler) Observe(u units.Utilization) units.Celsius {
	uu := units.Clamp(float64(u), 0, 1)
	uhat := units.Clamp(s.pred.Observe(uu), 0, 1)
	s.last = s.Lo + units.Celsius(float64(s.Hi-s.Lo)*uhat)
	return s.last
}

// Current returns the most recently scheduled reference.
func (s *SetpointScheduler) Current() units.Celsius { return s.last }

// Reset restores the initial state in place, keeping warm-batch policy
// resets allocation-free.
func (s *SetpointScheduler) Reset() {
	s.pred.Reset()
	s.last = s.Lo
}

package coord

import (
	"fmt"

	"repro/internal/units"
)

// SingleStepScaler is the single-step fan speed scaling of Sec. V-C:
// when the measured performance degradation over a sliding window exceeds
// a threshold, the fan jumps straight to maximum — server load spikes are
// much faster than the controller settling time (N_trans^fan fan periods),
// so waiting for the PID to ramp costs a whole transient of missed
// deadlines. The boost holds until the degradation clears and the
// measured temperature is back under the set-point, then the PID resumes
// and descends to the lowest feasible speed.
type SingleStepScaler struct {
	// Threshold is the violated-tick fraction that triggers the boost.
	Threshold float64
	// Window is the sliding window length in CPU ticks.
	Window int
	// ReleaseMargin: the boost releases once the measurement is at or
	// below T_ref − margin and the window shows no violations.
	ReleaseMargin units.Celsius

	history []bool
	next    int
	count   int
	viols   int
	boosted bool
	boosts  int
}

// NewSingleStepScaler validates and builds the scaler.
func NewSingleStepScaler(threshold float64, window int, releaseMargin units.Celsius) (*SingleStepScaler, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("coord: boost threshold %v outside (0, 1]", threshold)
	}
	if window < 1 {
		return nil, fmt.Errorf("coord: window %d < 1", window)
	}
	if releaseMargin < 0 {
		return nil, fmt.Errorf("coord: negative release margin %v", releaseMargin)
	}
	return &SingleStepScaler{
		Threshold:     threshold,
		Window:        window,
		ReleaseMargin: releaseMargin,
		history:       make([]bool, window),
	}, nil
}

// Observe feeds one CPU tick (whether it violated its demand, the current
// measurement, and the fan set-point) and reports whether the fan should
// be pinned at maximum this tick.
func (s *SingleStepScaler) Observe(violated bool, meas, ref units.Celsius) bool {
	if s.count < s.Window {
		s.count++
	} else if s.history[s.next] {
		s.viols--
	}
	s.history[s.next] = violated
	if violated {
		s.viols++
	}
	if s.next++; s.next == s.Window {
		s.next = 0
	}

	degradation := float64(s.viols) / float64(s.count)
	if !s.boosted {
		if s.count == s.Window && degradation > s.Threshold {
			s.boosted = true
			s.boosts++
		}
	} else {
		if s.viols == 0 && meas <= ref-s.ReleaseMargin {
			s.boosted = false
		}
	}
	return s.boosted
}

// Reset clears all state.
func (s *SingleStepScaler) Reset() {
	for i := range s.history {
		s.history[i] = false
	}
	s.next, s.count, s.viols, s.boosts = 0, 0, 0, 0
	s.boosted = false
}

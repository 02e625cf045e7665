// Package control implements the local controllers of the paper: the
// PID fan-speed controller of Eq. 4, its adaptive gain-scheduled variant
// of Eqs. 8–9, the quantization-error elimination rule of Eq. 10, the
// deadzone-like CPU utilization capper of Sec. III-A, and the deadzone fan
// controller the paper shows to be unstable under non-ideal measurements
// (Fig. 4).
//
// Controllers are invoked at their own decision period by the simulation
// engine. They receive the DTM-visible (lagged, quantized) measurement and
// the currently applied actuator value, and return a proposal; the global
// coordinator decides which proposals are applied (Sec. V-A).
package control

import (
	"fmt"

	"repro/internal/units"
)

// FanInputs is what a fan-speed controller sees at a decision instant.
type FanInputs struct {
	T      units.Seconds // simulation time
	Meas   units.Celsius // DTM-visible temperature (lagged + quantized)
	Actual units.RPM     // fan speed currently applied by the platform
}

// FanController proposes a fan speed each fan decision period.
type FanController interface {
	// Decide returns the proposed fan speed for the next period.
	Decide(in FanInputs) units.RPM
	// Reference returns the controller's set-point temperature T_ref.
	Reference() units.Celsius
	// SetReference moves the set-point (used by the predictive T_ref
	// scheduler of Sec. V-B).
	SetReference(t units.Celsius)
	// Reset clears controller state.
	Reset()
}

// CapInputs is what the CPU cap controller sees at a decision instant.
type CapInputs struct {
	T      units.Seconds     // simulation time
	Meas   units.Celsius     // DTM-visible temperature
	Actual units.Utilization // currently applied CPU cap
}

// Limits bounds a fan actuator.
type Limits struct {
	Min, Max units.RPM
}

// Validate reports the first invalid field, or nil.
func (l Limits) Validate() error {
	if l.Min < 0 || l.Max <= l.Min {
		return fmt.Errorf("control: bad fan limits [%v, %v]", l.Min, l.Max)
	}
	return nil
}

// Clamp limits s to the actuator range.
func (l Limits) Clamp(s units.RPM) units.RPM {
	return units.ClampRPM(s, l.Min, l.Max)
}

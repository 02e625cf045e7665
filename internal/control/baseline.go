package control

import (
	"fmt"

	"repro/internal/units"
)

// Deadzone is the incremental deadzone fan controller whose oscillation
// under a fixed workload the paper measures in Fig. 4: the speed steps up
// when the measurement exceeds the upper threshold, steps down below the
// lower threshold, and holds inside the band. The 10 s measurement lag
// makes it overshoot the band in both directions, producing a sustained
// limit cycle.
type Deadzone struct {
	Low, High units.Celsius
	StepSize  units.RPM
	Lim       Limits
	speed     units.RPM
	primed    bool
}

// NewDeadzone validates and builds the controller.
func NewDeadzone(low, high units.Celsius, step units.RPM, lim Limits) (*Deadzone, error) {
	if err := lim.Validate(); err != nil {
		return nil, err
	}
	if high <= low {
		return nil, fmt.Errorf("control: deadzone band [%v, %v] empty", low, high)
	}
	if step <= 0 {
		return nil, fmt.Errorf("control: non-positive deadzone step %v", step)
	}
	return &Deadzone{Low: low, High: high, StepSize: step, Lim: lim}, nil
}

// Decide implements FanController.
func (d *Deadzone) Decide(in FanInputs) units.RPM {
	if !d.primed {
		d.speed = in.Actual
		d.primed = true
	}
	switch {
	case in.Meas > d.High:
		d.speed += d.StepSize
	case in.Meas < d.Low:
		d.speed -= d.StepSize
	}
	d.speed = d.Lim.Clamp(d.speed)
	return d.speed
}

// Reference implements FanController: the band center.
func (d *Deadzone) Reference() units.Celsius { return (d.Low + d.High) / 2 }

// SetReference implements FanController: recenters the band, preserving
// its width.
func (d *Deadzone) SetReference(t units.Celsius) {
	half := (d.High - d.Low) / 2
	d.Low, d.High = t-half, t+half
}

// Reset implements FanController.
func (d *Deadzone) Reset() { d.speed, d.primed = 0, false }

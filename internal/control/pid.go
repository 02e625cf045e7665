package control

import (
	"fmt"

	"repro/internal/units"
)

// PIDGains holds the three PID coefficients of Eq. 4 in per-decision-step
// discrete form: the integral gain multiplies the running sum of errors
// and the derivative gain the per-step error difference.
type PIDGains struct {
	KP float64 // proportional gain, rpm per °C
	KI float64 // integral gain, rpm per (°C · step)
	KD float64 // derivative gain, rpm per (°C / step)
}

// PIDConfig configures a fan-speed PID controller.
type PIDConfig struct {
	Gains    PIDGains
	RefSpeed units.RPM     // s_ref^fan, the linearization offset of Eq. 4
	RefTemp  units.Celsius // T_ref^fan, the tracked junction temperature
	Limits   Limits        // actuator bounds
}

// PID is the positional PID fan-speed controller of Eq. 4:
//
//	s_fan(k+1) = s_ref + KP·ΔT(k) + KI·Σ ΔT(i) + KD·(ΔT(k) − ΔT(k−1))
//
// with ΔT(k) = T_meas(k) − T_ref. The error sign convention makes all
// gains positive: hotter than the set-point drives the fan faster.
type PID struct {
	cfg PIDConfig
	// slewPerStep is the fixed per-decision command bound (0 unlimited);
	// see SetSlewPerStep.
	slewPerStep units.RPM
	// slewFrac and slewFloor are the speed-proportional bound, which
	// overrides slewPerStep while slewFrac is positive; see SetSlewFrac.
	slewFrac  float64
	slewFloor units.RPM
	// windup bounds |Σ ΔT| for anti-windup, sized from the gains the
	// controller is built with so KI·|Σ ΔT| can just cover the full
	// actuator span: larger sums could only deepen saturation. Later
	// SetGains calls keep it.
	windup  float64
	errSum  float64
	prevErr float64
	primed  bool
}

// NewPID validates the configuration and returns a controller.
func NewPID(cfg PIDConfig) (*PID, error) {
	if err := cfg.Limits.Validate(); err != nil {
		return nil, err
	}
	if cfg.Gains.KP < 0 || cfg.Gains.KI < 0 || cfg.Gains.KD < 0 {
		return nil, fmt.Errorf("control: negative PID gains %+v", cfg.Gains)
	}
	// Without KI the bound is unused; the span keeps it finite.
	windup := float64(cfg.Limits.Max - cfg.Limits.Min)
	if cfg.Gains.KI > 0 {
		windup /= cfg.Gains.KI
	}
	return &PID{cfg: cfg, windup: windup}, nil
}

// Decide implements FanController.
func (p *PID) Decide(in FanInputs) units.RPM {
	e := float64(in.Meas - p.cfg.RefTemp)
	p.errSum = units.Clamp(p.errSum+e, -p.windup, p.windup)
	var de float64
	if p.primed {
		de = e - p.prevErr
	}
	p.prevErr = e
	p.primed = true
	out := float64(p.cfg.RefSpeed) +
		p.cfg.Gains.KP*e +
		p.cfg.Gains.KI*p.errSum +
		p.cfg.Gains.KD*de
	cmd := p.cfg.Limits.Clamp(units.RPM(out))
	if s := p.slewBound(in.Actual); s > 0 {
		cmd = units.ClampRPM(cmd, in.Actual-s, in.Actual+s)
		cmd = p.cfg.Limits.Clamp(cmd)
	}
	return cmd
}

// slewBound returns the per-decision command step bound at the given
// operating speed, or 0 for unlimited.
func (p *PID) slewBound(actual units.RPM) units.RPM {
	if p.slewFrac > 0 {
		s := units.RPM(p.slewFrac * float64(actual))
		if s < p.slewFloor {
			s = p.slewFloor
		}
		return s
	}
	return p.slewPerStep
}

// Reference implements FanController.
func (p *PID) Reference() units.Celsius { return p.cfg.RefTemp }

// SetReference implements FanController.
func (p *PID) SetReference(t units.Celsius) { p.cfg.RefTemp = t }

// Reset implements FanController.
func (p *PID) Reset() {
	p.errSum, p.prevErr, p.primed = 0, 0, false
}

// ResetIntegral zeroes only the accumulated error sum; the adaptive
// scheduler calls it on operating-region changes (Sec. IV-B).
func (p *PID) ResetIntegral() { p.errSum = 0 }

// ObserveHold records a measurement without producing or changing any
// output: the derivative history tracks the signal but the integral is
// frozen. The quantization guard calls it while holding the fan speed
// (Eq. 10) so that, when the error finally leaves the guard band, the
// derivative term reacts to a one-code change rather than to the whole
// accumulated band crossing — without this, every guard exit arrives
// with a derivative kick proportional to the band width.
func (p *PID) ObserveHold(meas units.Celsius) {
	p.prevErr = float64(meas - p.cfg.RefTemp)
	p.primed = true
}

// SetRefSpeed updates the linearization offset s_ref of Eq. 4.
func (p *PID) SetRefSpeed(s units.RPM) { p.cfg.RefSpeed = s }

// SetGains replaces the active gain set (the adaptive scheduler
// interpolates a new set every decision).
func (p *PID) SetGains(g PIDGains) { p.cfg.Gains = g }

// SetSlewPerStep bounds how far one decision may move the command from
// the currently applied speed, in rpm per decision period (0 disables).
// The paper's platform takes N_trans^fan decision periods to traverse the
// speed range (Sec. V-C); bounding the per-decision step is what makes
// that so, and it also caps the overshoot a 1 °C-quantized error can
// command at band exits.
func (p *PID) SetSlewPerStep(s units.RPM) {
	if s < 0 {
		s = 0
	}
	p.slewPerStep = s
}

// SetSlewFrac switches to a speed-proportional per-decision bound:
// frac*actual, floored at floor; a positive frac overrides the fixed
// bound of SetSlewPerStep. The plant gain dT/ds is steep at low speed and
// flat at high speed (Table I law), so a proportional bound permits fast
// high-speed ramps without re-opening the low-speed quantization limit
// cycle.
func (p *PID) SetSlewFrac(frac float64, floor units.RPM) {
	if frac < 0 {
		frac = 0
	}
	if floor < 0 {
		floor = 0
	}
	p.slewFrac, p.slewFloor = frac, floor
}

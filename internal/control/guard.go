package control

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// QuantGuard implements the quantization-error elimination scheme of
// Sec. IV-C (Eq. 10): when the measured temperature error is within the
// quantization step |T_Q|, the fan speed is held,
//
//	s_fan(k+1) = s_fan(k)  when |T_ref^fan − T_meas(k)| ≤ |T_Q|,
//
// which removes the limit cycle the integral term would otherwise ride on
// the ±1 step of the 8-bit ADC. The hold comparison is inclusive: with a
// set-point aligned to an ADC code the strict form of Eq. 10 would block
// only the exact-zero error and the output would keep hunting between the
// two adjacent codes, the very oscillation Sec. IV-C eliminates. Outside
// the guard band the wrapped controller runs normally.
type QuantGuard struct {
	inner FanController
	tq    float64
}

// NewQuantGuard wraps inner with a hold band of the given quantization
// step (the paper's ADC gives 1 °C).
func NewQuantGuard(inner FanController, tq float64) (*QuantGuard, error) {
	if inner == nil {
		return nil, fmt.Errorf("control: nil inner controller")
	}
	if tq <= 0 {
		return nil, fmt.Errorf("control: non-positive quantization step %v", tq)
	}
	return &QuantGuard{inner: inner, tq: tq}, nil
}

// holdObserver is implemented by controllers that can track a measurement
// while their output is externally held (PID, AdaptivePID).
type holdObserver interface {
	ObserveHold(meas units.Celsius)
}

// Decide implements FanController. Within the guard band the currently
// applied speed is returned unchanged; the inner controller's integral is
// frozen but, when it supports it, its derivative history still observes
// the measurement so guard exits do not arrive with a derivative kick
// spanning the whole band.
func (g *QuantGuard) Decide(in FanInputs) units.RPM {
	if math.Abs(float64(g.inner.Reference()-in.Meas)) <= g.tq+1e-9 {
		if ho, ok := g.inner.(holdObserver); ok {
			ho.ObserveHold(in.Meas)
		}
		return in.Actual
	}
	return g.inner.Decide(in)
}

// Reference implements FanController.
func (g *QuantGuard) Reference() units.Celsius { return g.inner.Reference() }

// SetReference implements FanController.
func (g *QuantGuard) SetReference(t units.Celsius) { g.inner.SetReference(t) }

// Reset implements FanController.
func (g *QuantGuard) Reset() { g.inner.Reset() }

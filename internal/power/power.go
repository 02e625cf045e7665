// Package power implements the server power models of the paper
// (Sec. III-B, Table I): a utilization-linear CPU model (Eq. 1) and the
// cubic fan-power law.
package power

import (
	"fmt"

	"repro/internal/units"
)

// CPUModel is the linear CPU power model of Eq. 1:
// P_cpu = P_static + P_dyn * u, with u the CPU utilization in [0, 1].
type CPUModel struct {
	Static  units.Watt // idle (static) power, Table I: 96 W
	Dynamic units.Watt // maximum dynamic power: P_max - P_idle = 64 W
}

// NewCPUModel builds a CPUModel from the Table I quantities: idle power
// (u = 0) and maximum power (u = 1). It returns an error when max < idle or
// either is negative.
func NewCPUModel(idle, max units.Watt) (CPUModel, error) {
	if idle < 0 || max < 0 {
		return CPUModel{}, fmt.Errorf("power: negative CPU power (idle %v, max %v)", idle, max)
	}
	if max < idle {
		return CPUModel{}, fmt.Errorf("power: max power %v below idle %v", max, idle)
	}
	return CPUModel{Static: idle, Dynamic: max - idle}, nil
}

// Power returns the CPU power at utilization u, clamped to [0, 1].
func (m CPUModel) Power(u units.Utilization) units.Watt {
	u = units.ClampUtil(u)
	return m.Static + units.Watt(float64(m.Dynamic)*float64(u))
}

// UtilizationFor inverts the model: the utilization that draws power p,
// clamped to [0, 1]. A zero-dynamic model returns 0.
func (m CPUModel) UtilizationFor(p units.Watt) units.Utilization {
	if m.Dynamic == 0 {
		return 0
	}
	return units.ClampUtil(units.Utilization((p - m.Static) / m.Dynamic))
}

// FanModel is the cubic fan power law P_fan = P_max * (s / s_max)^3
// (Sec. I: P_fan ∝ s_fan^3), parameterized by the Table I values
// 29.4 W at 8500 rpm.
type FanModel struct {
	MaxPower units.Watt // power at maximum speed, Table I: 29.4 W
	MaxSpeed units.RPM  // maximum speed, Table I: 8500 rpm
}

// NewFanModel validates and builds a FanModel.
func NewFanModel(maxPower units.Watt, maxSpeed units.RPM) (FanModel, error) {
	if maxPower < 0 {
		return FanModel{}, fmt.Errorf("power: negative fan power %v", maxPower)
	}
	if maxSpeed <= 0 {
		return FanModel{}, fmt.Errorf("power: non-positive max fan speed %v", maxSpeed)
	}
	return FanModel{MaxPower: maxPower, MaxSpeed: maxSpeed}, nil
}

// Power returns the fan power at speed s. Speeds are clamped to
// [0, MaxSpeed].
func (m FanModel) Power(s units.RPM) units.Watt {
	frac := units.Clamp(float64(s)/float64(m.MaxSpeed), 0, 1)
	return units.Watt(float64(m.MaxPower) * frac * frac * frac)
}

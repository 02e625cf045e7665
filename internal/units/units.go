// Package units defines the physical quantity types shared by the thermal,
// power, sensing and control packages, together with small numeric helpers
// (clamping, linear interpolation) that keep unit handling explicit at
// package boundaries.
//
// All quantities are plain float64 named types: they exist for documentation
// and API clarity, not dimensional analysis. Conversions are explicit.
package units

import (
	"fmt"
	"math"
)

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// RPM is a rotational fan speed in revolutions per minute.
type RPM float64

// Watt is a power in watts.
type Watt float64

// Joule is an energy in joules.
type Joule float64

// Seconds is a duration in seconds. The simulator uses raw seconds rather
// than time.Duration because all arithmetic is on the simulated clock.
type Seconds float64

// KPerW is a thermal resistance in kelvins per watt.
type KPerW float64

// JPerK is a thermal capacitance in joules per kelvin.
type JPerK float64

// Utilization is a CPU utilization fraction in [0, 1].
type Utilization float64

// String implements fmt.Stringer with one decimal place.
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// String implements fmt.Stringer.
func (r RPM) String() string { return fmt.Sprintf("%.0frpm", float64(r)) }

// String implements fmt.Stringer with two decimal places.
func (w Watt) String() string { return fmt.Sprintf("%.2fW", float64(w)) }

// String implements fmt.Stringer with one decimal place.
func (j Joule) String() string { return fmt.Sprintf("%.1fJ", float64(j)) }

// String implements fmt.Stringer as a percentage.
func (u Utilization) String() string { return fmt.Sprintf("%.1f%%", float64(u)*100) }

// Clamp limits v to the closed interval [lo, hi]. It panics if lo > hi,
// because a reversed interval is always a programming error at the call
// site, never a data condition.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic(reversedInterval{lo, hi})
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// reversedInterval is Clamp's panic value. Formatting the message only
// when the panic is printed keeps fmt out of Clamp's body, so Clamp fits
// the inliner's budget and inlines into every hot-path caller.
type reversedInterval struct{ lo, hi float64 }

func (r reversedInterval) Error() string {
	return fmt.Sprintf("units.Clamp: reversed interval [%g, %g]", r.lo, r.hi)
}

// ClampRPM limits a fan speed to [lo, hi].
func ClampRPM(v, lo, hi RPM) RPM {
	return RPM(Clamp(float64(v), float64(lo), float64(hi)))
}

// ClampUtil limits a utilization to [0, 1].
func ClampUtil(u Utilization) Utilization {
	return Utilization(Clamp(float64(u), 0, 1))
}

// Lerp linearly interpolates between a and b: Lerp(a, b, 0) == a,
// Lerp(a, b, 1) == b. t outside [0, 1] extrapolates.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// ApproxEqual reports whether a and b differ by at most tol.
//
//lint:ignore testonly tolerance fixture pinned by TestApproxEqual
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// IsFinite reports whether v is neither NaN nor infinite. The simulator
// validates every externally supplied parameter with it.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

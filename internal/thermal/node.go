package thermal

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Node is a single first-order thermal RC node integrated with the exact
// exponential solution of Eq. 2:
//
//	T(t+dt) = T_ss + (T(t) - T_ss) * exp(-dt / (R*C)),
//	T_ss    = T_ref + R * P            (Eq. 3)
//
// where T_ref is the temperature the node relaxes toward at zero load (the
// ambient for a heat sink, the sink temperature for a die). The exact form
// is unconditionally stable for any step size, which lets the simulator
// take 1 s steps against a 0.1 s die time constant without blowing up.
//
// The decay factor exp(-dt/tau) is memoized on (tau, dt): a die node's tau
// never changes and a sink node's changes only while the fan slews, so the
// steady-state tick path skips the math.Exp call entirely (profiling puts
// it near a fifth of the closed-loop tick). The cache is bit-transparent —
// a hit returns exactly the value the call would recompute.
type Node struct {
	temp units.Celsius

	decTau, decDt float64 // inputs the cached decay was computed for
	decay         float64
	decSet        bool
}

// NewNode returns a node at the given initial temperature.
func NewNode(initial units.Celsius) *Node { return &Node{temp: initial} }

// Temperature returns the node's current temperature.
func (n *Node) Temperature() units.Celsius { return n.temp }

// SetTemperature overrides the node state (used when re-initializing a
// scenario mid-run).
func (n *Node) SetTemperature(t units.Celsius) { n.temp = t }

// SteadyState returns Eq. 3 for the given reference temperature,
// resistance and heat load.
func SteadyState(ref units.Celsius, r units.KPerW, p units.Watt) units.Celsius {
	return ref + units.Celsius(float64(r)*float64(p))
}

// Step advances the node by dt against reference temperature ref,
// resistance r and capacitance c, under constant heat load p, using the
// exact exponential update. It panics on non-positive R or C or negative
// dt — all are construction-time errors, not runtime data.
func (n *Node) Step(ref units.Celsius, r units.KPerW, c units.JPerK, p units.Watt, dt units.Seconds) units.Celsius {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("thermal: non-positive RC (R=%v, C=%v)", r, c))
	}
	if dt < 0 {
		panic(fmt.Sprintf("thermal: negative step %v", dt))
	}
	ss := SteadyState(ref, r, p)
	tau := float64(r) * float64(c)
	if !n.decSet || tau != n.decTau || float64(dt) != n.decDt {
		n.decTau, n.decDt = tau, float64(dt)
		n.decay = math.Exp(-float64(dt) / tau)
		n.decSet = true
	}
	n.temp = ss + units.Celsius(float64(n.temp-ss)*n.decay)
	return n.temp
}

// CapacitanceFor returns the capacitance that yields the given time
// constant at the given resistance: C = tau / R. The server model uses it
// to derive C_hs from Table I's "60 s at max air flow".
func CapacitanceFor(tau units.Seconds, r units.KPerW) (units.JPerK, error) {
	if tau <= 0 || r <= 0 {
		return 0, fmt.Errorf("thermal: non-positive tau %v or R %v", tau, r)
	}
	return units.JPerK(float64(tau) / float64(r)), nil
}

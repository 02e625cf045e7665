package thermal

import (
	"fmt"

	"repro/internal/units"
)

// ServerParams parameterizes the two-node (die + heat sink) server thermal
// model. Zero values are invalid; use Validate before simulating.
type ServerParams struct {
	Law     HeatSinkLaw   // fan-speed-dependent sink resistance (Table I)
	SinkCap units.JPerK   // C_hs, derived from the 60 s max-flow time constant
	DieRes  units.KPerW   // R_die, junction-to-sink resistance
	DieCap  units.JPerK   // C_die, from the 0.1 s die time constant
	Ambient units.Celsius // inlet air temperature
}

// Validate reports the first invalid parameter, or nil.
func (p ServerParams) Validate() error {
	if p.Law.A <= 0 || p.Law.B <= 0 || p.Law.R0 < 0 {
		return fmt.Errorf("thermal: bad heat sink law %+v", p.Law)
	}
	if p.SinkCap <= 0 {
		return fmt.Errorf("thermal: non-positive sink capacitance %v", p.SinkCap)
	}
	if p.DieRes <= 0 {
		return fmt.Errorf("thermal: non-positive die resistance %v", p.DieRes)
	}
	if p.DieCap <= 0 {
		return fmt.Errorf("thermal: non-positive die capacitance %v", p.DieCap)
	}
	if p.Ambient < -60 || p.Ambient > 100 {
		return fmt.Errorf("thermal: implausible ambient %v", p.Ambient)
	}
	return nil
}

// Server is the two-node server thermal model of Sec. III-B. It exploits
// the time-constant separation the paper relies on: the sink (tau >= 60 s)
// integrates against ambient while the die (tau = 0.1 s) relaxes toward
// the sink so fast that within one simulator step it is effectively in
// quasi-steady state riding on the slowly moving sink temperature.
type Server struct {
	params ServerParams
	sink   *Node
	die    *Node

	// rhs memoizes Law.Resistance(v) for the last fan speed: the law's
	// math.Pow dominates the closed-loop tick profile, and the fan holds
	// its speed for the vast majority of ticks (decisions every 30 s,
	// slew-limited moves lasting a few seconds). A hit is bit-identical
	// to recomputing.
	rhsV   units.RPM
	rhs    units.KPerW
	rhsSet bool
}

// NewServer returns a server model with both nodes at ambient.
func NewServer(params ServerParams) (*Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		params: params,
		sink:   NewNode(params.Ambient),
		die:    NewNode(params.Ambient),
	}, nil
}

// Sink returns the current heat-sink temperature T_hs.
func (s *Server) Sink() units.Celsius { return s.sink.Temperature() }

// Junction returns the current die junction temperature T_j.
func (s *Server) Junction() units.Celsius { return s.die.Temperature() }

// SetAmbient changes the inlet temperature (datacenter scenarios vary it).
func (s *Server) SetAmbient(t units.Celsius) { s.params.Ambient = t }

// Step advances the model by dt under CPU heat load p and fan speed v.
// The sink integrates Eq. 2 with R_hs(v); the die then integrates against
// the updated sink temperature. It returns the new junction temperature.
func (s *Server) Step(p units.Watt, v units.RPM, dt units.Seconds) units.Celsius {
	if !s.rhsSet || v != s.rhsV {
		s.rhsV, s.rhs = v, s.params.Law.Resistance(v)
		s.rhsSet = true
	}
	rhs := s.rhs
	s.sink.Step(s.params.Ambient, rhs, s.params.SinkCap, p, dt)
	s.die.Step(s.sink.Temperature(), s.params.DieRes, s.params.DieCap, p, dt)
	return s.die.Temperature()
}

// SteadyJunction returns the junction temperature the model converges to
// if load p and fan speed v are held forever:
// T_amb + (R_hs(v) + R_die) * P.
//
//lint:ignore testonly analytic reference for TestServerConvergesToSteadyJunction and sim's TestWarmStart
func (s *Server) SteadyJunction(p units.Watt, v units.RPM) units.Celsius {
	rhs := s.params.Law.Resistance(v)
	return SteadyState(SteadyState(s.params.Ambient, rhs, p), s.params.DieRes, p)
}

// SpeedForJunction returns the lowest fan speed keeping the steady-state
// junction temperature at or below target under load p, or an error when
// even infinite flow cannot (target below ambient + (R0+R_die)*P). The
// single-step fan scaler uses it to pick the descent endpoint.
func (s *Server) SpeedForJunction(target units.Celsius, p units.Watt) (units.RPM, error) {
	if p <= 0 {
		return 0, fmt.Errorf("thermal: non-positive load %v", p)
	}
	// target = amb + (Rhs + Rdie)*P  =>  Rhs = (target-amb)/P - Rdie
	rhs := units.KPerW(float64(target-s.params.Ambient)/float64(p)) - s.params.DieRes
	if rhs <= s.params.Law.R0 {
		return 0, fmt.Errorf("thermal: target %v unreachable at load %v", target, p)
	}
	v, err := s.params.Law.SpeedFor(rhs)
	if err != nil {
		// Resistance above the law's value at the minimum modeled speed:
		// any speed suffices; report the floor.
		return minSpeedFloor, nil
	}
	return v, nil
}

// Reset returns both nodes to ambient.
func (s *Server) Reset() {
	s.sink.SetTemperature(s.params.Ambient)
	s.die.SetTemperature(s.params.Ambient)
}

// SetState forces the node temperatures (scenario warm starts).
func (s *Server) SetState(sink, junction units.Celsius) {
	s.sink.SetTemperature(sink)
	s.die.SetTemperature(junction)
}

package sim

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/thermal"
	"repro/internal/units"
)

// PhysicalServer is the platform under management: the two-node thermal
// model, the power models, the slew-limited fan actuator, the hardware
// over-temperature throttle, and the non-ideal measurement chain between
// the die and the DTM firmware.
type PhysicalServer struct {
	cfg     Config
	therm   *thermal.Server
	cpu     power.CPUModel
	fan     power.FanModel
	pipe    *sensor.Pipeline
	fanCmd  units.RPM // last commanded speed
	fanAct  units.RPM // actual (slewed) speed
	cap     units.Utilization
	lastT   units.Seconds
	started bool
}

// NewPhysicalServer builds a server from the configuration. The fan starts
// at minimum speed, the cap fully open, both thermal nodes at ambient.
func NewPhysicalServer(cfg Config) (*PhysicalServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tp, err := cfg.thermalParams()
	if err != nil {
		return nil, err
	}
	th, err := thermal.NewServer(tp)
	if err != nil {
		return nil, err
	}
	cpu, fan, err := cfg.Models()
	if err != nil {
		return nil, err
	}
	pipe, err := sensor.New(cfg.Sensor)
	if err != nil {
		return nil, err
	}
	return &PhysicalServer{
		cfg:    cfg,
		therm:  th,
		cpu:    cpu,
		fan:    fan,
		pipe:   pipe,
		fanCmd: cfg.FanMinSpeed,
		fanAct: cfg.FanMinSpeed,
		cap:    1,
	}, nil
}

// Thermal exposes the underlying thermal model (read-mostly: experiments
// query steady-state helpers).
func (s *PhysicalServer) Thermal() *thermal.Server { return s.therm }

// CommandFan sets the fan speed command, clamped to the platform range.
// The physical speed slews toward it over subsequent ticks.
func (s *PhysicalServer) CommandFan(v units.RPM) {
	s.fanCmd = units.ClampRPM(v, s.cfg.FanMinSpeed, s.cfg.FanMaxSpeed)
}

// SetCap sets the CPU utilization cap, clamped to [0, 1].
func (s *PhysicalServer) SetCap(u units.Utilization) { s.cap = units.ClampUtil(u) }

// Cap returns the applied CPU cap.
func (s *PhysicalServer) Cap() units.Utilization { return s.cap }

// FanCommand returns the last commanded fan speed.
func (s *PhysicalServer) FanCommand() units.RPM { return s.fanCmd }

// FanActual returns the physical (slewed) fan speed.
func (s *PhysicalServer) FanActual() units.RPM { return s.fanAct }

// Junction returns the true die temperature (not visible to the policy).
func (s *PhysicalServer) Junction() units.Celsius { return s.therm.Junction() }

// TickResult reports what happened during one engine tick.
type TickResult struct {
	T           units.Seconds
	Demand      units.Utilization // workload requirement
	Delivered   units.Utilization // after cap and hardware throttle
	Violated    bool              // Delivered < Demand
	HWThrottled bool              // the TProtect clamp engaged
	Junction    units.Celsius     // true die temperature after the tick
	Measured    units.Celsius     // DTM-visible temperature after the tick
	FanActual   units.RPM
	FanCmd      units.RPM
	Cap         units.Utilization
	CPUPower    units.Watt // per socket
	FanPower    units.Watt // per socket
	TotalPower  units.Watt // all sockets
	FanEnergyJ  units.Joule
	CPUEnergyJ  units.Joule
}

// TickInto advances the platform by one engine step under the given
// demanded utilization: slews the fan, computes delivered utilization
// under the cap and the hardware throttle, steps the thermal model, and
// samples the measurement chain. Time must advance by exactly cfg.Tick
// per call. It writes out field by field, not as one TickResult value,
// which the compiler would build in a temporary and block-copy into out:
// the engine and lockstep loops tick millions of times per run.
func (s *PhysicalServer) TickInto(demand units.Utilization, out *TickResult) {
	dt := s.cfg.Tick
	t := s.lastT
	if s.started {
		t += dt
	}
	s.lastT = t
	s.started = true

	// Fan slew toward the command.
	maxStep := units.RPM(float64(s.cfg.FanSlewPerSec) * float64(dt))
	switch d := s.fanCmd - s.fanAct; {
	case d > maxStep:
		s.fanAct += maxStep
	case d < -maxStep:
		s.fanAct -= maxStep
	default:
		s.fanAct = s.fanCmd
	}

	// Delivered utilization: the cap binds first; the hardware
	// protection binds harder if the die is over the limit.
	demand = units.ClampUtil(demand)
	delivered := demand
	if delivered > s.cap {
		delivered = s.cap
	}
	hw := false
	if s.therm.Junction() > s.cfg.TProtect && delivered > s.cfg.EmergencyCap {
		delivered = s.cfg.EmergencyCap
		hw = true
	}

	cpuP := s.cpu.Power(delivered)
	fanP := s.fan.Power(s.fanAct)
	s.therm.Step(cpuP, s.fanAct, dt)
	// Power-dependent measurement error (sensor.PlacementOffset) sees the
	// power dissipated during the tick it samples; ideal chains skip the
	// forwarding (NeedsPower is a cached slice-length check).
	if s.pipe.NeedsPower() {
		s.pipe.ObservePower(float64(cpuP))
	}
	meas := s.pipe.Sample(t, float64(s.therm.Junction()))

	out.T = t
	out.Demand = demand
	out.Delivered = delivered
	out.Violated = delivered < demand-1e-9
	out.HWThrottled = hw
	out.Junction = s.therm.Junction()
	out.Measured = units.Celsius(meas)
	out.FanActual = s.fanAct
	out.FanCmd = s.fanCmd
	out.Cap = s.cap
	out.CPUPower = cpuP
	out.FanPower = fanP
	out.TotalPower = units.Watt(float64(s.cfg.NSockets)) * (cpuP + fanP)
	out.FanEnergyJ = units.Joule(float64(fanP) * float64(dt) * float64(s.cfg.NSockets))
	out.CPUEnergyJ = units.Joule(float64(cpuP) * float64(dt) * float64(s.cfg.NSockets))
}

// ReplaceSensor swaps the measurement chain, e.g. to inject faults
// (sensor.StuckAt, sensor.Dropout) between the transducer and the DTM.
// It must be called before the run starts.
func (s *PhysicalServer) ReplaceSensor(p *sensor.Pipeline) error {
	if p == nil {
		return fmt.Errorf("sim: nil sensor pipeline")
	}
	if s.started {
		return fmt.Errorf("sim: sensor replaced mid-run")
	}
	s.pipe = p
	return nil
}

// SetAmbient re-homes the platform at a new inlet (ambient) temperature,
// revalidating the configuration at the new operating point. The fleet
// layer's warm rack instances call it between relaxation passes instead of
// rebuilding the server; the change applies from the next thermal step (a
// subsequent Reset or WarmStart re-initializes state against it).
func (s *PhysicalServer) SetAmbient(t units.Celsius) error {
	cfg := s.cfg
	cfg.Ambient = t
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	s.therm.SetAmbient(t)
	return nil
}

// Reset returns the platform to its initial state.
func (s *PhysicalServer) Reset() {
	s.therm.Reset()
	s.pipe.Reset()
	s.fanCmd = s.cfg.FanMinSpeed
	s.fanAct = s.cfg.FanMinSpeed
	s.cap = 1
	s.lastT = 0
	s.started = false
}

// WarmStart puts the platform into thermal steady state for the given
// load and fan speed, with the measurement chain primed to match. Fig. 3/4
// scenarios start from an operating point rather than a cold chassis.
func (s *PhysicalServer) WarmStart(u units.Utilization, v units.RPM) error {
	if u < 0 || u > 1 {
		return fmt.Errorf("sim: warm start utilization %v outside [0, 1]", u)
	}
	v = units.ClampRPM(v, s.cfg.FanMinSpeed, s.cfg.FanMaxSpeed)
	p := s.cpu.Power(u)
	sink := thermal.SteadyState(s.cfg.Ambient, s.cfg.HeatSinkLaw.Resistance(v), p)
	junc := thermal.SteadyState(sink, s.cfg.DieRes, p)
	s.therm.SetState(sink, junc)
	s.fanCmd, s.fanAct = v, v
	s.pipe.Reset()
	// The warm operating point has been dissipating p for a long time, so
	// power-dependent measurement error applies to the primed readings too.
	if s.pipe.NeedsPower() {
		s.pipe.ObservePower(float64(p))
	}
	// Prime the delay line so the policy sees the warm temperature, not
	// the initial-value placeholder, from t = 0.
	lag := float64(s.cfg.Sensor.LagSeconds)
	tick := float64(s.cfg.Tick)
	for i := 0; i <= int(lag/tick)+1; i++ {
		s.pipe.Sample(units.Seconds(float64(i)*tick-lag-tick), float64(junc))
	}
	return nil
}

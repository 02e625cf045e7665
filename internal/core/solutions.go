package core

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/sim"
	"repro/internal/units"
)

// The five Table III solutions. Each takes the platform configuration and
// returns a ready sim.Policy; all share the same stable adaptive fan
// controller per the paper's "for fair comparison" note.

// NewUncoordinated returns the "w/o coordination" baseline.
func NewUncoordinated(cfg sim.Config) (*DTM, error) {
	return NewDTM("w/o coordination", Options{Config: cfg, Mode: NoCoordination})
}

// NewECoordPolicy returns the energy-aware coordination baseline of [6].
// Its cap floor is deep (0.1, see eCoordMinCap).
func NewECoordPolicy(cfg sim.Config) (*DTM, error) {
	return NewDTM("E-coord", Options{Config: cfg, Mode: EnergyAware})
}

// NewRuleCoord returns R-coord with a fixed T_ref (Table III uses 75 °C).
func NewRuleCoord(cfg sim.Config, refTemp units.Celsius) (*DTM, error) {
	name := fmt.Sprintf("R-coord(@Tref=%.0fC)", float64(refTemp))
	return NewDTM(name, Options{Config: cfg, Mode: RuleBased, RefTemp: refTemp})
}

// NewRuleCoordAdaptiveRef returns R-coord + A-T_ref (Sec. V-B).
func NewRuleCoordAdaptiveRef(cfg sim.Config) (*DTM, error) {
	return NewDTM("R-coord+A-Tref", Options{Config: cfg, Mode: RuleBased, AdaptiveRef: true})
}

// NewFullStack returns R-coord + A-T_ref + SS_fan (Sec. V-C): the paper's
// complete proposal.
func NewFullStack(cfg sim.Config) (*DTM, error) {
	return NewDTM("R-coord+A-Tref+SSfan", Options{
		Config:      cfg,
		Mode:        RuleBased,
		AdaptiveRef: true,
		SingleStep:  true,
	})
}

// FanOnlyPolicy drives a bare fan controller with the cap held open: the
// configuration used in the stability experiments (Fig. 3 and Fig. 4),
// where only the fan loop is under study.
type FanOnlyPolicy struct {
	name     string
	fan      control.FanController
	interval units.Seconds
	maxSpeed units.RPM
	lastFan  units.Seconds
	fanEver  bool
}

// NewFanOnlyPolicy wraps a fan controller deciding every interval seconds.
func NewFanOnlyPolicy(name string, fan control.FanController, interval units.Seconds, cfg sim.Config) (*FanOnlyPolicy, error) {
	if fan == nil {
		return nil, fmt.Errorf("core: nil fan controller")
	}
	if interval < cfg.Tick {
		return nil, fmt.Errorf("core: fan interval %v below tick %v", interval, cfg.Tick)
	}
	return &FanOnlyPolicy{name: name, fan: fan, interval: interval, maxSpeed: cfg.FanMaxSpeed}, nil
}

// Name implements sim.Policy.
func (p *FanOnlyPolicy) Name() string { return p.name }

// Step implements sim.Policy.
func (p *FanOnlyPolicy) Step(obs sim.Observation) sim.Command {
	cmd := sim.Command{Fan: obs.FanCmd, Cap: 1}
	due := !p.fanEver || obs.T-p.lastFan >= p.interval-1e-9
	if due {
		cmd.Fan = p.fan.Decide(control.FanInputs{T: obs.T, Meas: obs.Measured, Actual: obs.FanCmd})
		p.lastFan = obs.T
		p.fanEver = true
	}
	return cmd
}

// Reset implements sim.Policy.
func (p *FanOnlyPolicy) Reset() {
	p.fan.Reset()
	p.lastFan = 0
	p.fanEver = false
}

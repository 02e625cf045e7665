package sim

import (
	"fmt"

	"repro/internal/units"
)

// Plant adapts the physical server to the tuning.Plant interface: a
// fixed-utilization operating point where one Step holds a fan command
// for a full fan control period and returns the DTM-visible measurement.
// Tuning therefore sees exactly what the deployed controller will see —
// lag, quantization and all.
type Plant struct {
	server    *PhysicalServer
	util      units.Utilization
	fanPeriod units.Seconds
	warm      WarmPoint
}

// NewPlant builds a tuning plant at the given operating point. fanPeriod
// is the fan controller decision interval (Table I evaluation: 30 s); the
// plant warm-starts at the operating fan speed so the ultimate-gain search
// explores the neighbourhood the gains will serve.
func NewPlant(cfg Config, util units.Utilization, opSpeed units.RPM, fanPeriod units.Seconds) (*Plant, error) {
	if util < 0 || util > 1 {
		return nil, fmt.Errorf("sim: plant utilization %v outside [0, 1]", util)
	}
	if fanPeriod < cfg.Tick {
		return nil, fmt.Errorf("sim: fan period %v below tick %v", fanPeriod, cfg.Tick)
	}
	server, err := NewPhysicalServer(cfg)
	if err != nil {
		return nil, err
	}
	p := &Plant{
		server:    server,
		util:      util,
		fanPeriod: fanPeriod,
		warm:      WarmPoint{Util: util, Fan: opSpeed},
	}
	p.Reset()
	return p, nil
}

// Reset implements tuning.Plant.
func (p *Plant) Reset() {
	p.server.Reset()
	if err := p.server.WarmStart(p.warm.Util, p.warm.Fan); err != nil {
		panic(err) // validated at construction
	}
}

// Step implements tuning.Plant: hold the fan command for one fan control
// period at constant utilization, return the final measurement.
func (p *Plant) Step(s units.RPM) units.Celsius {
	p.server.CommandFan(s)
	p.server.SetCap(1)
	ticks := int(float64(p.fanPeriod) / float64(p.server.cfg.Tick))
	var last TickResult
	for i := 0; i < ticks; i++ {
		p.server.TickInto(p.util, &last)
	}
	return last.Measured
}

// ControlPeriod implements tuning.Plant.
func (p *Plant) ControlPeriod() units.Seconds { return p.fanPeriod }

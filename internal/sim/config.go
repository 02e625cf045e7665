// Package sim composes the physical substrates (thermal, power, sensing,
// workload) into the discrete-time server simulator of Sec. VI-A, drives a
// dynamic-thermal-management policy over it, and reports the paper's
// metrics: deadline-violation fraction and fan energy.
//
// The engine ticks at a fixed step (default 1 s, the CPU control interval
// of Table I); the policy under test decides the fan speed and CPU cap at
// its own cadence and the platform applies them through a slew-limited fan
// actuator.
//
// The tick loop is allocation-free after warm-up, and independent runs
// (solution comparisons, seed sweeps, a rack's nodes) execute concurrently
// through the batch engine, a warm Lockstep (lockstep.go) over Jobs
// (batch.go); ParallelFor serves work that is not a Run, such as tuning
// sweeps. Batch results are order-stable and bit-identical to running
// each job alone through Run.
package sim

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Config collects every physical and platform parameter of the simulated
// server. Default() returns the Table I calibration; all experiments start
// from it and override only what they study.
//
// Every field carries a same-name json tag: the scenario store keys cells
// by the SHA-256 of the spec's canonical JSON, so the tags pin the wire
// names — a field rename without a deliberate tag change would silently
// move every store key (enforced by the hashedfield analyzer).
type Config struct {
	// CPU power model (Eq. 1): Table I P_idle = 96 W, P_max = 160 W.
	CPUIdlePower units.Watt `json:"CPUIdlePower"`
	CPUMaxPower  units.Watt `json:"CPUMaxPower"`

	// Fan: Table I 29.4 W per socket at 8500 rpm.
	FanMaxPower units.Watt `json:"FanMaxPower"`
	FanMaxSpeed units.RPM  `json:"FanMaxSpeed"`
	FanMinSpeed units.RPM  `json:"FanMinSpeed"`
	// FanSlewPerSec bounds how fast the physical fan tracks its command.
	FanSlewPerSec units.RPM `json:"FanSlewPerSec"`

	// Thermal model: Table I heat-sink law, 60 s sink time constant at
	// max air flow, 0.1 s die time constant; R_die = 0.12 K/W puts the
	// steady junction at u = 0.7 near 78.5 °C at 2000 rpm and 67.8 °C at
	// 6000 rpm.
	HeatSinkLaw thermal.HeatSinkLaw `json:"HeatSinkLaw"`
	SinkTau     units.Seconds       `json:"SinkTau"`
	DieRes      units.KPerW         `json:"DieRes"`
	DieTau      units.Seconds       `json:"DieTau"`
	Ambient     units.Celsius       `json:"Ambient"`

	// Measurement chain (Sec. I): 10 s I2C lag, 8-bit ADC (1 °C step).
	Sensor sensor.Config `json:"Sensor"`

	// TLimit is the comfort-zone boundary the controllers enforce (the
	// paper's "safe operating region, e.g. < 80 °C"); time above it is
	// reported as a metric but delivery is not clamped there — keeping
	// the die inside the zone is the DTM's job, not the platform's.
	TLimit units.Celsius `json:"TLimit"`
	// TProtect is the silicon protection threshold: above it the
	// platform force-throttles delivered utilization to EmergencyCap
	// regardless of the policy. Real firmware keeps this well above the
	// comfort zone.
	TProtect     units.Celsius     `json:"TProtect"`
	EmergencyCap units.Utilization `json:"EmergencyCap"`

	// Tick is the engine step and CPU control interval (Table I: 1 s).
	Tick units.Seconds `json:"Tick"`

	// NSockets scales reported power; the paper's balanced-workload
	// assumption makes all sockets identical.
	NSockets int `json:"NSockets"`
}

// Default returns the Table I configuration. Values Table I does not
// give (R_die, the time constants, the fan slew) are this model's
// calibration, documented on the Config fields.
func Default() Config {
	return Config{
		CPUIdlePower:  96,
		CPUMaxPower:   160,
		FanMaxPower:   29.4,
		FanMaxSpeed:   8500,
		FanMinSpeed:   1000,
		FanSlewPerSec: 800,
		HeatSinkLaw:   thermal.TableIHeatSinkLaw(),
		SinkTau:       60,
		DieRes:        0.12,
		DieTau:        0.1,
		Ambient:       25,
		Sensor:        sensor.TableIConfig(),
		TLimit:        80,
		TProtect:      90,
		EmergencyCap:  0.3,
		Tick:          1,
		NSockets:      1,
	}
}

// Validate reports the first invalid parameter, or nil.
func (c Config) Validate() error {
	if c.CPUIdlePower < 0 || c.CPUMaxPower < c.CPUIdlePower {
		return fmt.Errorf("sim: bad CPU power range [%v, %v]", c.CPUIdlePower, c.CPUMaxPower)
	}
	if c.FanMaxPower < 0 {
		return fmt.Errorf("sim: negative fan power %v", c.FanMaxPower)
	}
	if c.FanMinSpeed < 0 || c.FanMaxSpeed <= c.FanMinSpeed {
		return fmt.Errorf("sim: bad fan speed range [%v, %v]", c.FanMinSpeed, c.FanMaxSpeed)
	}
	if c.FanSlewPerSec <= 0 {
		return fmt.Errorf("sim: non-positive fan slew %v", c.FanSlewPerSec)
	}
	if c.SinkTau <= 0 || c.DieTau <= 0 {
		return fmt.Errorf("sim: non-positive time constants (sink %v, die %v)", c.SinkTau, c.DieTau)
	}
	if c.DieRes <= 0 {
		return fmt.Errorf("sim: non-positive die resistance %v", c.DieRes)
	}
	if c.TLimit <= c.Ambient {
		return fmt.Errorf("sim: TLimit %v at or below ambient %v", c.TLimit, c.Ambient)
	}
	if c.TProtect < c.TLimit {
		return fmt.Errorf("sim: TProtect %v below TLimit %v", c.TProtect, c.TLimit)
	}
	if c.EmergencyCap < 0 || c.EmergencyCap > 1 {
		return fmt.Errorf("sim: emergency cap %v outside [0, 1]", c.EmergencyCap)
	}
	if c.Tick <= 0 {
		return fmt.Errorf("sim: non-positive tick %v", c.Tick)
	}
	if c.NSockets < 1 {
		return fmt.Errorf("sim: %d sockets", c.NSockets)
	}
	return nil
}

// thermalParams derives the two-node thermal model parameters.
func (c Config) thermalParams() (thermal.ServerParams, error) {
	sinkCap, err := thermal.CapacitanceFor(c.SinkTau, c.HeatSinkLaw.Resistance(c.FanMaxSpeed))
	if err != nil {
		return thermal.ServerParams{}, err
	}
	dieCap, err := thermal.CapacitanceFor(c.DieTau, c.DieRes)
	if err != nil {
		return thermal.ServerParams{}, err
	}
	return thermal.ServerParams{
		Law:     c.HeatSinkLaw,
		SinkCap: sinkCap,
		DieRes:  c.DieRes,
		DieCap:  dieCap,
		Ambient: c.Ambient,
	}, nil
}

// ThermalModel builds a standalone two-node thermal model from the
// configuration, used by policies that need steady-state queries (e.g.
// the single-step scaler's release-speed computation).
func (c Config) ThermalModel() (*thermal.Server, error) {
	tp, err := c.thermalParams()
	if err != nil {
		return nil, err
	}
	return thermal.NewServer(tp)
}

// Models builds the validated power models from the configuration.
func (c Config) Models() (power.CPUModel, power.FanModel, error) {
	cpu, err := power.NewCPUModel(c.CPUIdlePower, c.CPUMaxPower)
	if err != nil {
		return power.CPUModel{}, power.FanModel{}, err
	}
	fan, err := power.NewFanModel(c.FanMaxPower, c.FanMaxSpeed)
	if err != nil {
		return power.CPUModel{}, power.FanModel{}, err
	}
	return cpu, fan, nil
}

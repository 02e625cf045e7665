// Package core assembles the paper's full dynamic thermal management
// stack (Fig. 2): the adaptive PID fan-speed controller with quantization
// guard (Sec. IV), the deadzone CPU capper (Sec. III-A), and the global
// coordination layer (Sec. V) — rule-based action selection, predictive
// set-point scheduling, and single-step fan scaling — as sim.Policy
// implementations. The five Table III solutions are each one constructor
// call away.
package core

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/coord"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// CoordMode selects the global coordination scheme.
type CoordMode int

// CoordMode values.
const (
	// NoCoordination applies both local proposals independently — the
	// Table III baseline.
	NoCoordination CoordMode = iota
	// RuleBased serializes actions through the Table II rule matrix.
	RuleBased
	// EnergyAware is the E-coord baseline [6]: a lazy (energy-optimal)
	// fan set-point plus greedy ΔT/ΔW action selection at emergencies,
	// which always prefers throttling because throttling saves power.
	EnergyAware
)

// String implements fmt.Stringer.
func (m CoordMode) String() string {
	switch m {
	case NoCoordination:
		return "w/o-coordination"
	case RuleBased:
		return "r-coord"
	case EnergyAware:
		return "e-coord"
	default:
		return fmt.Sprintf("CoordMode(%d)", int(m))
	}
}

// Options configures a DTM policy. NewDTM applies the documented defaults
// to zero fields; the paper's fixed parameters are the constants below.
type Options struct {
	// Platform the DTM manages; used for actuator limits and the models
	// E-coord scores actions with. Required.
	Config sim.Config

	// FanInterval is Δt_fan^control (default DefaultFanInterval).
	FanInterval units.Seconds
	// RefTemp is the fan controller set-point T_ref^fan (default 75 °C).
	RefTemp units.Celsius

	// Mode selects the coordination scheme (default NoCoordination).
	Mode CoordMode

	// AdaptiveRef enables the predictive T_ref scheduler of Sec. V-B
	// over [refLo, refHi] with a predictorWindow-tick moving average.
	AdaptiveRef bool

	// SingleStep enables the Sec. V-C fan boost: when the violated-tick
	// fraction over boostWindow ticks exceeds boostThreshold, the fan
	// pins to maximum.
	SingleStep bool

	// Regions is the adaptive PID gain schedule (default DefaultRegions).
	Regions []control.Region
	// NoQuantGuard drops Eq. 10's guard, which otherwise holds the fan
	// inside the sensor's quantization step.
	NoQuantGuard bool
}

func (o *Options) setDefaults() {
	if o.FanInterval == 0 {
		o.FanInterval = DefaultFanInterval
	}
	if o.RefTemp == 0 {
		o.RefTemp = 75
	}
	if o.Regions == nil {
		o.Regions = DefaultRegions()
	}
}

// The DTM's fixed parameters.
const (
	// refLo and refHi bound the predictive T_ref scheduler (Sec. V-B).
	// The paper scales T_ref up to 80 °C; with the 80 °C hardware limit,
	// 1 °C quantization and the 10 s lag, a set-point above 78 leaves the
	// capper no band to operate in, so the band stops there.
	refLo units.Celsius = 70
	refHi units.Celsius = 78
	// predictorWindow is the T_ref predictor's moving-average window in
	// CPU ticks.
	predictorWindow = 30

	// boostThreshold and boostWindow trigger the Sec. V-C fan boost.
	boostThreshold = 0.3
	boostWindow    = 10

	// fanSlewPerDecision bounds how far one fan decision may move the
	// command. Sec. V-C's N_trans^fan — multiple decision periods to
	// traverse the range — presumes exactly such a bound, and it caps the
	// overshoot a quantized error can command.
	fanSlewPerDecision units.RPM = 1500

	// CPU capper band and step. Under NoCoordination and RuleBased the
	// band is re-derived every tick to ride capBandOffset above the
	// current fan set-point — the capper's hold band must sit strictly
	// above the quantization guard's hold band or the system deadlocks
	// with a starved cap and a held fan (both controllers inside their
	// deadzones). capLow/capHigh seed the initial band and the E-coord
	// thresholds.
	capLow, capHigh units.Celsius     = 76, 79
	capStep         units.Utilization = 0.05
	// capBandOffset is how far above the fan set-point (plus one
	// quantization step) the capper release threshold sits; the band is
	// capBandWidth wide and clamped below TLimit.
	capBandOffset units.Celsius = 0.5
	capBandWidth  units.Celsius = 2.5

	// minCap is the cap floor. Real platforms floor the P-state cap near
	// half throttle; deeper caps would let a scheme "save" fan energy by
	// starving the machine outright.
	minCap units.Utilization = 0.5
	// eCoordMinCap is EnergyAware's floor: the energy-greedy scheme
	// happily starves the machine — capping both cools and saves power,
	// so by its own objective there is no reason to stop early. That
	// asymmetry against the rule-based schemes' floor is exactly the
	// performance blindness the paper criticizes.
	eCoordMinCap units.Utilization = 0.1

	// coordEpoch is the global coordinator's action period:
	// performance-harming actions (cap cuts, E-coord escalations) are
	// serialized to at most one per epoch — "only one control action at
	// a time" (Sec. V-A) — while performance-restoring ones (cap
	// releases) pass freely, implementing the table's performance bias.
	coordEpoch units.Seconds = 5

	// emergency is the E-coord emergency threshold.
	emergency = capHigh
)

// DTM is the global controller of Fig. 2 as a sim.Policy.
type DTM struct {
	opt      Options
	name     string
	fan      control.FanController
	adaptive *control.AdaptivePID
	capper   *control.Capper
	ecoord   *coord.ECoord
	setpoint *coord.SetpointScheduler
	scaler   *coord.SingleStepScaler
	// relCPU and relTherm are the cached models releaseSpeed queries; they
	// are pure functions of the configuration, built once so boost
	// releases stay allocation-free on the tick path.
	relCPU   power.CPUModel
	relTherm *thermal.Server
	// tq is the platform ADC's quantization step, a pure function of the
	// configuration cached here because retuneCapperBand needs it every
	// tick.
	tq units.Celsius

	lastFan  units.Seconds
	fanEver  bool
	boosting bool
	// standingFanDir is the fan's most recent decision direction,
	// persisting until its next decision.
	standingFanDir coord.Direction
	// lastCut is the last performance-harming action instant; such
	// actions are serialized to one per coordEpoch.
	lastCut units.Seconds
	everCut bool
	// lastRelease is the E-coord lazy cap-release instant.
	lastRelease units.Seconds
}

// NewDTM builds a DTM policy from the options.
func NewDTM(name string, opt Options) (*DTM, error) {
	opt.setDefaults()
	if err := opt.Config.Validate(); err != nil {
		return nil, err
	}
	if opt.FanInterval < opt.Config.Tick {
		return nil, fmt.Errorf("core: fan interval %v below tick %v", opt.FanInterval, opt.Config.Tick)
	}
	limits := control.Limits{Min: opt.Config.FanMinSpeed, Max: opt.Config.FanMaxSpeed}

	refTemp, floor := opt.RefTemp, minCap
	if opt.Mode == EnergyAware {
		// The energy-greedy scheme runs the fan as lazily as the
		// hardware limit allows, since cooling beyond that wastes energy
		// by its own objective, and throttles deeper.
		refTemp, floor = emergency, eCoordMinCap
	}
	adaptive, err := control.NewAdaptivePID(opt.Regions, refTemp, limits)
	if err != nil {
		return nil, err
	}
	adaptive.SetSlewPerStep(fanSlewPerDecision)
	var fan control.FanController = adaptive
	if !opt.NoQuantGuard {
		guard, err := control.NewQuantGuard(adaptive, quantStep(opt.Config))
		if err != nil {
			return nil, err
		}
		fan = guard
	}
	capper, err := control.NewCapper(capLow, capHigh, capStep, floor)
	if err != nil {
		return nil, err
	}
	d := &DTM{opt: opt, name: name, fan: fan, adaptive: adaptive, capper: capper,
		tq: units.Celsius(quantStep(opt.Config))}
	if relCPU, _, err := opt.Config.Models(); err == nil {
		d.relCPU = relCPU
		if relTherm, err := opt.Config.ThermalModel(); err == nil {
			d.relTherm = relTherm
		}
	}

	if opt.Mode == EnergyAware {
		cpu, fanModel, err := opt.Config.Models()
		if err != nil {
			return nil, err
		}
		ec, err := coord.NewECoord(emergency, capLow, 500, capStep, floor,
			opt.Config.HeatSinkLaw, cpu, fanModel)
		if err != nil {
			return nil, err
		}
		d.ecoord = ec
	}
	if opt.AdaptiveRef {
		sp, err := coord.NewSetpointScheduler(refLo, refHi, predictorWindow)
		if err != nil {
			return nil, err
		}
		d.setpoint = sp
	}
	if opt.SingleStep {
		sc, err := coord.NewSingleStepScaler(boostThreshold, boostWindow, 1)
		if err != nil {
			return nil, err
		}
		d.scaler = sc
	}
	d.Reset()
	return d, nil
}

// quantStep returns the temperature quantization step of the platform's
// ADC, or 1 °C for a sensor chain without an ADC.
func quantStep(cfg sim.Config) float64 {
	if cfg.Sensor.ADCBits <= 0 {
		return 1
	}
	return cfg.Sensor.ADCStep()
}

// Name implements sim.Policy.
func (d *DTM) Name() string { return d.name }

// Reset implements sim.Policy.
func (d *DTM) Reset() {
	d.fan.Reset()
	d.capper.Reset()
	if d.setpoint != nil {
		d.setpoint.Reset()
	}
	if d.scaler != nil {
		d.scaler.Reset()
	}
	d.lastFan = 0
	d.fanEver = false
	d.boosting = false
	d.standingFanDir = coord.Hold
	d.lastCut = 0
	d.everCut = false
	d.lastRelease = 0
	d.capper.Low, d.capper.High = capLow, capHigh
}

// fanTick reports whether a fan decision is due at time t.
func (d *DTM) fanTick(t units.Seconds) bool {
	if !d.fanEver {
		return true
	}
	return t-d.lastFan >= d.opt.FanInterval-1e-9
}

// retuneCapperBand slides the capper thresholds to ride above the current
// fan set-point: release below ref + T_Q + offset, throttle above that
// plus the band width, clamped below the hardware limit. This keeps the
// capper's hold band disjoint from the quantization guard's hold band —
// overlapping bands deadlock the platform at a starved cap (see capLow).
func (d *DTM) retuneCapperBand() {
	lo := d.fan.Reference() + d.tq + capBandOffset
	hi := lo + capBandWidth
	if max := d.opt.Config.TLimit - 0.5; hi > max {
		hi = max
	}
	if lo > hi-1 {
		lo = hi - 1
	}
	d.capper.Low, d.capper.High = lo, hi
}

// Step implements sim.Policy.
func (d *DTM) Step(obs sim.Observation) sim.Command {
	// Predictive set-point: observe demand every CPU tick, reschedule
	// T_ref before any decision that reads it (Sec. V-B).
	if d.setpoint != nil {
		d.fan.SetReference(d.setpoint.Observe(obs.Demand))
	}
	if d.opt.Mode != EnergyAware {
		d.retuneCapperBand()
	}

	// Single-step boost pre-empts everything for the fan (Sec. V-C).
	// While boosted the PID is held (integral frozen, derivative
	// tracking) so the boost does not wind it toward the minimum.
	boosted := false
	releasing := false
	if d.scaler != nil {
		boosted = d.scaler.Observe(obs.Violated, obs.Measured, d.fan.Reference())
		releasing = d.boosting && !boosted
		d.boosting = boosted
	}

	// Local proposals.
	capProposal := d.capper.Decide(control.CapInputs{T: obs.T, Meas: obs.Measured, Actual: obs.Cap})
	fanProposal := obs.FanCmd
	fanDecided := false
	if boosted {
		if ho, ok := d.fan.(interface {
			ObserveHold(units.Celsius)
		}); ok {
			ho.ObserveHold(obs.Measured)
		}
	} else if d.fanTick(obs.T) {
		fanProposal = d.fan.Decide(control.FanInputs{T: obs.T, Meas: obs.Measured, Actual: obs.FanCmd})
		d.lastFan = obs.T
		d.fanEver = true
		fanDecided = true
	}

	// The fan's standing direction: the direction of its most recent
	// decision, persisting until the next one. The fan needs N_trans^fan
	// periods to act on a thermal event (Sec. V-C); while it is working
	// in a direction, the Table II rules weigh the cap proposal against
	// that standing intent, not just against an instantaneous snapshot.
	if boosted {
		d.standingFanDir = coord.Up
		if obs.FanCmd >= d.opt.Config.FanMaxSpeed {
			// The boost has saturated the actuator: no further fan-up
			// exists to apply, so a standing Up claim would make Table II
			// discard cap-release proposals indefinitely. From a cold
			// chassis that deadlocks — the transient cut cap keeps every
			// tick violated, the violations keep the boost alive, and the
			// boost keeps the cap starved (the cold-start throttling
			// latch; see TestColdStartNoThrottleLatch). A pinned fan
			// reads as Hold so the performance bias can restore the cap.
			d.standingFanDir = coord.Hold
		}
	} else if fanDecided {
		d.standingFanDir = coord.Classify(float64(fanProposal), float64(obs.FanCmd), 25)
	}
	fanDir := d.standingFanDir

	cutAllowed := !d.everCut || obs.T-d.lastCut >= coordEpoch-1e-9

	cmd := sim.Command{Fan: obs.FanCmd, Cap: obs.Cap}
	switch d.opt.Mode {
	case NoCoordination:
		cmd.Fan = fanProposal
		cmd.Cap = capProposal
	case RuleBased:
		capDir := coord.Classify(float64(capProposal), float64(obs.Cap), 1e-9)
		switch coord.Rule(capDir, fanDir) {
		case coord.ApplyFan:
			// The fan owns the response: apply its proposal when fresh;
			// on intermediate ticks the previous command keeps acting
			// (N_trans^fan periods of ramp) and the cap holds.
			if fanDecided {
				cmd.Fan = fanProposal
			}
		case coord.ApplyCap:
			if capDir == coord.Up {
				cmd.Cap = capProposal // performance recovery passes freely
			} else if cutAllowed {
				cmd.Cap = capProposal
				d.lastCut = obs.T
				d.everCut = true
			}
		}
	case EnergyAware:
		switch {
		case obs.Measured > emergency:
			dec := d.ecoord.Decide(coord.EState{
				Measured: obs.Measured,
				Fan:      obs.FanCmd,
				FanMin:   d.opt.Config.FanMinSpeed,
				FanMax:   d.opt.Config.FanMaxSpeed,
				Cap:      obs.Cap,
				Util:     obs.Delivered,
			})
			switch dec.Action {
			case coord.ApplyCap:
				cmd.Cap = dec.Cap
			case coord.ApplyFan:
				cmd.Fan = dec.Fan
			}
		case obs.Measured < capLow:
			// Cold: restore performance, but lazily — every release
			// step costs energy, so the greedy scheme takes at most one
			// per fan interval (the paper's critique: performance is
			// E-coord's last priority).
			if capProposal > obs.Cap && obs.T-d.lastRelease >= d.opt.FanInterval-1e-9 {
				cmd.Cap = capProposal
				d.lastRelease = obs.T
			}
			cmd.Fan = fanProposal
		default:
			cmd.Fan = fanProposal
		}
	}

	if boosted {
		cmd.Fan = d.opt.Config.FanMaxSpeed
	} else if releasing {
		// Boost release (Sec. V-C): drop directly to the lowest speed
		// that runs the current demand without a temperature violation,
		// rather than descending over several fan periods at cubic cost.
		cmd.Fan = d.releaseSpeed(obs)
		d.adaptive.ResetIntegral()
		d.lastFan = obs.T
		d.fanEver = true
	}
	return cmd
}

// releaseSpeed computes the post-boost fan speed: the steady-state speed
// holding the fan set-point at the sustained demand, clamped to the
// platform range. The sustained demand is the set-point predictor's
// moving average when available — releasing against one noisy
// instantaneous sample re-triggers the boost the moment demand recovers.
// Falls back to the current command on infeasible targets (the PID
// recovers from there).
func (d *DTM) releaseSpeed(obs sim.Observation) units.RPM {
	demand := obs.Demand
	if d.setpoint != nil {
		// Invert the scheduler: its reference encodes the predicted
		// utilization, T_ref = lo + (hi-lo)*û.
		uhat := float64(d.setpoint.Current()-d.setpoint.Lo) / float64(d.setpoint.Hi-d.setpoint.Lo)
		demand = units.ClampUtil(units.Utilization(uhat))
		if obs.Demand > demand {
			demand = obs.Demand
		}
	}
	if d.relTherm == nil {
		return obs.FanCmd
	}
	v, err := d.relTherm.SpeedForJunction(d.fan.Reference(), d.relCPU.Power(demand))
	if err != nil {
		return d.opt.Config.FanMaxSpeed
	}
	return units.ClampRPM(v, d.opt.Config.FanMinSpeed, d.opt.Config.FanMaxSpeed)
}

package core

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/tuning"
	"repro/internal/units"
)

// DefaultFanInterval is Δt_fan^control from Sec. VI-A.
const DefaultFanInterval units.Seconds = 30

// The fan-only loops — the stability experiments' PID policies and the
// multi-core platform's fan controller — bound each decision to
// fanOnlySlewFrac of the operating speed, at least fanOnlySlewFloor (see
// control.PID.SetSlewFrac), and guard with a fanOnlyGuardStep (°C)
// quantization step whatever ADC the platform declares.
const (
	fanOnlySlewFrac            = 0.6
	fanOnlySlewFloor units.RPM = 400
	fanOnlyGuardStep           = 1.0
)

// FanOnly builds a fan-only loop around c: it bounds c's decisions to the
// speed-proportional slew and wraps c in the quantization guard.
func FanOnly(c interface {
	control.FanController
	SetSlewFrac(frac float64, floor units.RPM)
}) (*control.QuantGuard, error) {
	c.SetSlewFrac(fanOnlySlewFrac, fanOnlySlewFloor)
	return control.NewQuantGuard(c, fanOnlyGuardStep)
}

// DefaultRegions returns the gain schedule shipped with the library: the
// two operating regions of Sec. IV-B (2000 and 6000 rpm — "two regions
// are enough to linearize the relationship within 5% error"), tuned by
// the Ziegler–Nichols procedure of TuneRegions against the Table I
// platform at u = 0.7 with the no-overshoot ZN-type rule: P_u spans only
// about five to eight 30 s control periods, where the quarter-decay
// classic rule's gains sit on the discrete loop's stability boundary.
// Regenerate with cmd/fantune.
func DefaultRegions() []control.Region {
	return defaultRegions
}

// defaultRegions is overwritten by the values cmd/fantune prints.
var defaultRegions = []control.Region{
	{RefSpeed: 2000, Gains: control.PIDGains{KP: 259, KI: 66, KD: 676}},
	{RefSpeed: 6000, Gains: control.PIDGains{KP: 738, KI: 279, KD: 1304}},
}

// TuneResult reports one region's tuning experiment.
type TuneResult struct {
	Region   control.Region
	Ultimate tuning.Ultimate
	RefTemp  units.Celsius // equilibrium temperature used as the set-point
}

// TuneRegions runs the closed-loop Ziegler–Nichols procedure of Sec. IV-A
// at each operating fan speed against the full simulated platform
// (including the non-ideal measurement chain) and returns the gain
// schedule. The set-point of each experiment is the plant's own
// steady-state junction temperature at (util, speed), so the warm start
// is an equilibrium and the pulse perturbation explores its neighborhood.
//
// Each region's experiment drives its own private plant, so the per-speed
// tuning runs fan out across cores through the batch engine's ParallelFor;
// results stay in speed order regardless of scheduling.
func TuneRegions(cfg sim.Config, speeds []units.RPM, util units.Utilization,
	fanPeriod units.Seconds, rule tuning.Rule) ([]TuneResult, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("core: no operating speeds")
	}
	cpu, _, err := cfg.Models()
	if err != nil {
		return nil, err
	}
	out := make([]TuneResult, len(speeds))
	errs := make([]error, len(speeds))
	if err := sim.ParallelFor(len(speeds), 0, func(i int) {
		v := speeds[i]
		p := cpu.Power(util)
		sink := thermal.SteadyState(cfg.Ambient, cfg.HeatSinkLaw.Resistance(v), p)
		ref := thermal.SteadyState(sink, cfg.DieRes, p)

		plant, err := sim.NewPlant(cfg, util, v, fanPeriod)
		if err != nil {
			errs[i] = err
			return
		}
		// Bracket the ultimate gain from the plant's local sensitivity:
		// |dT/ds| at the operating point gives the static loop gain; the
		// discrete boundary sits within a decade of its inverse.
		sens := cfg.HeatSinkLaw.Sensitivity(v, p)
		if sens >= 0 {
			errs[i] = fmt.Errorf("core: non-negative plant sensitivity at %v", v)
			return
		}
		kuEstimate := 1 / -sens
		znCfg := tuning.ZNConfig{
			RefTemp:  ref,
			RefSpeed: v,
			Limits:   control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed},
			KPLo:     kuEstimate / 30,
			KPHi:     kuEstimate * 10,
			// The 1 °C ADC makes sub-degree ripple invisible; classify
			// with a prominence just above one quantization step.
			Prominence: 1.2,
		}
		region, ult, err := tuning.TuneRegion(plant, znCfg, rule)
		if err != nil {
			errs[i] = fmt.Errorf("core: tuning at %v: %w", v, err)
			return
		}
		out[i] = TuneResult{Region: region, Ultimate: ult, RefTemp: ref}
	}); err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, nil
}

package coord

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/units"
)

// ECoord is the energy-greedy coordination baseline modeled on [6] (JETC):
// when a thermal emergency occurs it compares the candidate control
// actions by their temperature-reduction-per-added-watt ratio and takes
// the most energy-efficient one; when the system is cold it takes the most
// energy-saving action. The paper's criticism — reproduced faithfully —
// is that this ignores performance: throttling the CPU both cools and
// *saves* energy, so its efficiency ratio is unbeatable and E-coord
// throttles where the rule-based scheme would spin the fan.
type ECoord struct {
	// Emergency and Relax bracket the comfort band: above Emergency an
	// action is taken to cool; below Relax an action is taken to save
	// energy or restore performance.
	Emergency units.Celsius
	Relax     units.Celsius
	// FanStep and CapStep are the candidate action magnitudes.
	FanStep units.RPM
	CapStep units.Utilization
	// MinCap bounds throttling depth.
	MinCap units.Utilization

	law thermal.HeatSinkLaw
	cpu power.CPUModel
	fan power.FanModel
}

// NewECoord validates and builds the baseline. The thermal and power
// models are the coordinator's own (E-coord is model-based, unlike the
// paper's proposal): it uses them to score candidate actions.
func NewECoord(emergency, relax units.Celsius, fanStep units.RPM, capStep, minCap units.Utilization,
	law thermal.HeatSinkLaw, cpu power.CPUModel, fan power.FanModel) (*ECoord, error) {
	if relax >= emergency {
		return nil, fmt.Errorf("coord: relax %v not below emergency %v", relax, emergency)
	}
	if fanStep <= 0 {
		return nil, fmt.Errorf("coord: non-positive fan step %v", fanStep)
	}
	if capStep <= 0 || capStep > 1 {
		return nil, fmt.Errorf("coord: cap step %v outside (0, 1]", capStep)
	}
	if minCap < 0 || minCap >= 1 {
		return nil, fmt.Errorf("coord: min cap %v outside [0, 1)", minCap)
	}
	return &ECoord{
		Emergency: emergency,
		Relax:     relax,
		FanStep:   fanStep,
		CapStep:   capStep,
		MinCap:    minCap,
		law:       law,
		cpu:       cpu,
		fan:       fan,
	}, nil
}

// EState is the platform state E-coord scores actions against.
type EState struct {
	Measured units.Celsius
	Fan      units.RPM
	FanMin   units.RPM
	FanMax   units.RPM
	Cap      units.Utilization
	Util     units.Utilization // delivered utilization (heat source)
}

// EDecision is the outcome of one E-coord evaluation.
type EDecision struct {
	Action Action
	Fan    units.RPM         // new fan command when Action == ApplyFan
	Cap    units.Utilization // new cap when Action == ApplyCap
	FanEff float64           // °C cooled per added watt for the fan step
	CapEff float64           // °C cooled per added watt for the cap step
}

// scoreFan estimates ΔT/ΔP for raising the fan by FanStep.
func (e *ECoord) scoreFan(st EState) (eff float64, newFan units.RPM, feasible bool) {
	newFan = units.ClampRPM(st.Fan+e.FanStep, st.FanMin, st.FanMax)
	if newFan <= st.Fan {
		return 0, st.Fan, false
	}
	p := e.cpu.Power(st.Util)
	dT := float64(e.law.Resistance(st.Fan)-e.law.Resistance(newFan)) * float64(p)
	dP := float64(e.fan.Power(newFan) - e.fan.Power(st.Fan))
	if dP <= 0 {
		return 0, st.Fan, false
	}
	return dT / dP, newFan, true
}

// scoreCap estimates ΔT/ΔP for lowering the cap by CapStep. The power
// delta is negative (throttling saves energy), which the greedy criterion
// treats as infinitely efficient — the degenerate preference the paper
// criticizes.
func (e *ECoord) scoreCap(st EState) (eff float64, newCap units.Utilization, feasible bool) {
	newCap = st.Cap - e.CapStep
	if newCap < e.MinCap {
		newCap = e.MinCap
	}
	if newCap >= st.Cap || st.Util <= newCap {
		// Capping below the running load is the only way to cool.
		if newCap >= st.Cap {
			return 0, st.Cap, false
		}
	}
	rTot := float64(e.law.Resistance(st.Fan)) + dieResistance
	dU := float64(st.Util) - float64(newCap)
	if dU <= 0 {
		return 0, st.Cap, false // cap not binding: no thermal effect
	}
	dT := rTot * float64(e.cpu.Dynamic) * dU
	// dP < 0: model as a very large positive efficiency.
	return dT * 1e9, newCap, true
}

// dieResistance mirrors sim.Default's DieRes (0.12 K/W); E-coord only
// needs it for scoring, and a constant keeps the baseline self-contained.
const dieResistance = 0.12

// Decide evaluates the E-coord policy for the current state.
func (e *ECoord) Decide(st EState) EDecision {
	switch {
	case st.Measured > e.Emergency:
		fanEff, newFan, fanOK := e.scoreFan(st)
		capEff, newCap, capOK := e.scoreCap(st)
		d := EDecision{FanEff: fanEff, CapEff: capEff}
		switch {
		case capOK && (!fanOK || capEff >= fanEff):
			d.Action, d.Cap = ApplyCap, newCap
		case fanOK:
			d.Action, d.Fan = ApplyFan, newFan
		default:
			d.Action = NoAction
		}
		return d
	case st.Measured < e.Relax:
		// Cold: take the most energy-saving action. Lowering the fan
		// saves cubic power; raising the cap only costs energy, so the
		// fan descends first and the cap releases once the fan floor is
		// reached (performance recovery is E-coord's last priority).
		if st.Fan > st.FanMin {
			return EDecision{Action: ApplyFan, Fan: units.ClampRPM(st.Fan-e.FanStep, st.FanMin, st.FanMax)}
		}
		if st.Cap < 1 {
			cap := st.Cap + e.CapStep
			if cap > 1 {
				cap = 1
			}
			return EDecision{Action: ApplyCap, Cap: cap}
		}
		return EDecision{Action: NoAction}
	default:
		return EDecision{Action: NoAction}
	}
}

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig3Run is one controller's trace and stability summary.
type Fig3Run struct {
	// Variant is the controller's job name in the spec (specs/fig3.json:
	// pid@2000rpm, pid@6000rpm and adaptive-pid).
	Variant string
	Traces  trace.Set
	// SettleAfterStep is the junction settling time (into RefTemp ± 1.5)
	// measured from the low-to-high workload step; Settled is false when
	// the loop never settles within the phase (the paper's "very slow
	// convergence" case).
	SettleAfterStep units.Seconds
	Settled         bool
	// LowPhaseAmp is the fan-speed oscillation amplitude in the late low
	// phase (rpm) — the paper's "unstable especially at the lower fan
	// speed range" shows here.
	LowPhaseAmp float64
	// HighPhaseAmp is the oscillation amplitude in the late high phase.
	HighPhaseAmp float64
}

// Fig3Result bundles the three runs. specs/fig3.json sets T_ref = 68 °C,
// which puts the 0.1/0.7 workload's operating fan speeds at ~1460 and
// ~5820 rpm, one in each gain-scheduling region, so the fixed-gain
// failure modes and the adaptive controller's advantage all appear.
type Fig3Result struct {
	RefTemp units.Celsius
	Runs    []Fig3Run
}

// Fig3FromOutcome post-processes a (possibly store-cached) outcome of
// the fig3 spec into the paper's stability summaries. Each job's
// square-wave period and fan set-point come from the spec: the settling
// window follows the first low-to-high step, half a period in, and the
// oscillation windows sit in the second period's late low and high
// phases.
func Fig3FromOutcome(spec scenario.Spec, out *scenario.Outcome) (*Fig3Result, error) {
	if len(out.Units) != len(spec.Jobs) {
		return nil, fmt.Errorf("experiments: fig3 outcome has %d units, want %d", len(out.Units), len(spec.Jobs))
	}
	result := &Fig3Result{}
	for i, job := range spec.Jobs {
		period, okPeriod := job.Workload.Params["period"]
		ref, okRef := job.Policy.Params["ref_temp"]
		if !okPeriod || !okRef {
			return nil, fmt.Errorf("experiments: fig3 job %q sets no period or ref_temp", job.Name)
		}
		if i == 0 {
			result.RefTemp = units.Celsius(ref)
		}
		u := &out.Units[i]
		ts := u.Series
		run := Fig3Run{Variant: u.Name, Traces: ts}

		half := period / 2
		junc := ts.Get("junction")
		stepAt := half // low-to-high transition of the first period
		window := junc.Window(stepAt+5, period-10)
		if st, ok := window.SettlingTime(ref, 1.5); ok {
			run.SettleAfterStep = units.Seconds(st - stepAt)
			run.Settled = true
		}

		fan := ts.Get("fan_cmd")
		lowWin := fan.Window(period+half/2, period+half-10)
		run.LowPhaseAmp = stats.PeakAmplitude(stats.FindPeaks(lowWin.V, 200))
		hiWin := fan.Window(period+half+half/2, 2*period-10)
		run.HighPhaseAmp = stats.PeakAmplitude(stats.FindPeaks(hiWin.V, 200))

		result.Runs = append(result.Runs, run)
	}
	return result, nil
}

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig3Variant identifies one of the three compared fan controllers.
type Fig3Variant string

// The Fig. 3 controller variants.
const (
	Fixed2000 Fig3Variant = "pid@2000rpm"
	Fixed6000 Fig3Variant = "pid@6000rpm"
	Adaptive  Fig3Variant = "adaptive-pid"
)

// Fig3Run is one controller's trace and stability summary.
type Fig3Run struct {
	Variant Fig3Variant
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

// Fig3Result bundles the three runs.
type Fig3Result struct {
	RefTemp units.Celsius
	Runs    []Fig3Run
}

// Fig3Config parameterizes the adaptive-vs-fixed-gain comparison.
type Fig3Config struct {
	RefTemp units.Celsius // fan set-point; 68 °C spans both gain regions
	Period  units.Seconds // square-wave period (low phase first)
	Cycles  int           // number of full periods to simulate
}

// DefaultFig3 returns the calibrated scenario: T_ref = 68 °C puts the
// 0.1/0.7 workload's operating fan speeds at ~1460 and ~5820 rpm, one in
// each gain-scheduling region, so the fixed-gain failure modes and the
// adaptive controller's advantage all appear.
func DefaultFig3() Fig3Config {
	return Fig3Config{RefTemp: 68, Period: 1200, Cycles: 2}
}

// fig3Variants lists the compared controllers with their policy refs.
func fig3Variants(fc Fig3Config) []struct {
	Variant Fig3Variant
	Policy  scenario.FactoryRef
} {
	ref := float64(fc.RefTemp)
	return []struct {
		Variant Fig3Variant
		Policy  scenario.FactoryRef
	}{
		{Fixed2000, scenario.FactoryRef{Name: "pid-fixed", Params: scenario.Params{"region": 0, "ref_temp": ref}}},
		{Fixed6000, scenario.FactoryRef{Name: "pid-fixed", Params: scenario.Params{"region": 1, "ref_temp": ref}}},
		{Adaptive, scenario.FactoryRef{Name: "adaptive-pid", Params: scenario.Params{"ref_temp": ref}}},
	}
}

// Fig3Spec builds the declarative three-controller comparison: the
// variants are independent recorded closed-loop runs sharing one clock,
// so the runner advances them as one warm lockstep batch.
func Fig3Spec(fc Fig3Config) scenario.Spec {
	variants := fig3Variants(fc)
	jobs := make([]scenario.JobSpec, len(variants))
	for i, v := range variants {
		jobs[i] = scenario.JobSpec{
			Name:      string(v.Variant),
			Workload:  scenario.FactoryRef{Name: "square", Params: scenario.Params{"period": float64(fc.Period)}},
			Policy:    v.Policy,
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
		}
	}
	return scenario.Spec{
		Kind:     scenario.KindBatch,
		Name:     "fig3",
		Duration: units.Seconds(float64(fc.Period) * float64(fc.Cycles)),
		Jobs:     jobs,
		Record:   true,
	}
}

// Fig3 runs the three-controller comparison through the scenario runner.
func Fig3(fc Fig3Config) (*Fig3Result, error) {
	if fc.Cycles < 1 {
		return nil, fmt.Errorf("experiments: fig3 needs at least one cycle")
	}
	out, err := scenario.Run(Fig3Spec(fc))
	if err != nil {
		return nil, err
	}
	return Fig3FromOutcome(fc, out)
}

// Fig3FromOutcome post-processes a (possibly store-cached) outcome into
// the paper's stability summaries.
func Fig3FromOutcome(fc Fig3Config, out *scenario.Outcome) (*Fig3Result, error) {
	variants := fig3Variants(fc)
	if len(out.Units) != len(variants) {
		return nil, fmt.Errorf("experiments: fig3 outcome has %d units, want %d", len(out.Units), len(variants))
	}
	result := &Fig3Result{RefTemp: fc.RefTemp}
	for i, v := range variants {
		ts := out.Units[i].Series
		run := Fig3Run{Variant: v.Variant, Traces: ts}

		half := float64(fc.Period) / 2
		junc := ts.Get("junction")
		stepAt := half // low-to-high transition of the first period
		window := junc.Window(stepAt+5, float64(fc.Period)-10)
		if st, ok := window.SettlingTime(float64(fc.RefTemp), 1.5); ok {
			run.SettleAfterStep = units.Seconds(st - stepAt)
			run.Settled = true
		}

		fan := ts.Get("fan_cmd")
		lowWin := fan.Window(float64(fc.Period)+half/2, float64(fc.Period)+half-10)
		run.LowPhaseAmp = stats.PeakAmplitude(stats.FindPeaks(lowWin.V, 200))
		hiWin := fan.Window(float64(fc.Period)+half+half/2, 2*float64(fc.Period)-10)
		run.HighPhaseAmp = stats.PeakAmplitude(stats.FindPeaks(hiWin.V, 200))

		result.Runs = append(result.Runs, run)
	}
	return result, nil
}

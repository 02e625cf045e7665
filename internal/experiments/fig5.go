package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tuning"
	"repro/internal/units"
)

// Fig5Result reproduces Fig. 5: the proposed stack (stable fan controller
// coordinated with the CPU load controller) stays stable under a
// time-varying CPU load with Gaussian noise (σ = 0.04).
type Fig5Result struct {
	Traces      trace.Set
	Metrics     sim.Metrics
	Oscillation tuning.Oscillation // classification of the fan trace
	MaxJunction units.Celsius
}

// Fig5Config parameterizes the dynamic-stability demonstration.
type Fig5Config struct {
	Period     units.Seconds // square-wave period
	NoiseSigma float64       // paper: 0.04
	Duration   units.Seconds
	Seed       int64
}

// DefaultFig5 returns the paper's setting.
func DefaultFig5() Fig5Config {
	return Fig5Config{Period: 600, NoiseSigma: 0.04, Duration: 3000, Seed: 1}
}

// Fig5Spec builds the declarative dynamic-stability scenario: the
// rule-coordinated DTM under the noisy square wave.
func Fig5Spec(fc Fig5Config) scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "fig5",
		Duration: fc.Duration,
		Jobs: []scenario.JobSpec{{
			Name: "rcoord",
			Workload: scenario.FactoryRef{
				Name: "noisy-square",
				Seed: fc.Seed,
				Params: scenario.Params{
					"period": float64(fc.Period),
					"sigma":  fc.NoiseSigma,
				},
			},
			Policy:    scenario.FactoryRef{Name: "rcoord", Params: scenario.Params{"ref_temp": 75}},
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
		}},
		Record: true,
	}
}

// Fig5 runs the dynamic-stability experiment through the scenario runner.
func Fig5(fc Fig5Config) (*Fig5Result, error) {
	out, err := scenario.Run(Fig5Spec(fc))
	if err != nil {
		return nil, err
	}
	return Fig5FromOutcome(fc, out)
}

// Fig5FromOutcome post-processes a (possibly cached) outcome.
func Fig5FromOutcome(fc Fig5Config, out *scenario.Outcome) (*Fig5Result, error) {
	if len(out.Units) != 1 {
		return nil, fmt.Errorf("experiments: fig5 outcome has %d units", len(out.Units))
	}
	u := &out.Units[0]
	m := scenario.SimMetrics(u)
	fan := u.Series.Get("fan_cmd")
	// Classify the late two thirds (skip the cold-ish start transient).
	vals := fan.Window(float64(fc.Duration)/3, float64(fc.Duration)).V
	osc := tuning.Classify(vals, 300, 0.5)
	return &Fig5Result{
		Traces:      u.Series,
		Metrics:     m,
		Oscillation: osc,
		MaxJunction: m.MaxJunction,
	}, nil
}

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

// Fig5FromOutcome post-processes a (possibly cached) outcome of the fig5
// spec, classifying the fan trace over the last two thirds of the spec's
// horizon.
func Fig5FromOutcome(spec scenario.Spec, out *scenario.Outcome) (*Fig5Result, error) {
	if len(out.Units) != 1 {
		return nil, fmt.Errorf("experiments: fig5 outcome has %d units", len(out.Units))
	}
	u := &out.Units[0]
	m := scenario.SimMetrics(u)
	fan := u.Series.Get("fan_cmd")
	// Classify the late two thirds (skip the cold-ish start transient).
	vals := fan.Window(float64(spec.Duration)/3, float64(spec.Duration)).V
	osc := tuning.Classify(vals, 300, 0.5)
	return &Fig5Result{
		Traces:      u.Series,
		Metrics:     m,
		Oscillation: osc,
		MaxJunction: m.MaxJunction,
	}, nil
}

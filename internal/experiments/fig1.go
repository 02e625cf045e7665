package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig1Result reproduces Fig. 1: a CPU-utilization step and the power-
// sensor reading that follows it through the I2C telemetry path, both
// normalized, demonstrating the ~10 s measurement lag.
type Fig1Result struct {
	Traces      trace.Set
	MeasuredLag units.Seconds // time for the sensor to cross 50% of the step
	NominalLag  units.Seconds // the configured transport delay
}

// Fig1FromOutcome rebuilds the experiment result from a (possibly
// store-cached) outcome.
func Fig1FromOutcome(out *scenario.Outcome) (*Fig1Result, error) {
	if len(out.Units) != 1 {
		return nil, fmt.Errorf("experiments: fig1 outcome has %d units", len(out.Units))
	}
	u := &out.Units[0]
	return &Fig1Result{
		Traces:      u.Series,
		MeasuredLag: units.Seconds(u.Metric(scenario.MetricMeasuredLagS, 0)),
		NominalLag:  units.Seconds(u.Metric(scenario.MetricNominalLagS, 0)),
	}, nil
}

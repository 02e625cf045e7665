package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sensor"
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

// Fig1Config parameterizes the telemetry-lag demonstration.
type Fig1Config struct {
	StepTime units.Seconds // utilization step instant (paper trace: mid-run)
	Duration units.Seconds // horizon (paper plot: 700 s)
	Bus      sensor.Bus    // contention model producing the lag
}

// DefaultFig1 returns the paper's setting: a 16-sensor bus (10 s lag)
// over a 700 s window.
func DefaultFig1() Fig1Config {
	return Fig1Config{StepTime: 100, Duration: 700, Bus: sensor.DefaultBus()}
}

// Fig1Spec builds the declarative scenario for the telemetry probe.
func Fig1Spec(fc Fig1Config) scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindFig1,
		Name:     "fig1",
		Duration: fc.Duration,
		Params: scenario.Params{
			"step_time":         float64(fc.StepTime),
			"bus_base_latency":  float64(fc.Bus.BaseLatency),
			"bus_transfer_time": float64(fc.Bus.TransferTime),
			"bus_sensors":       float64(fc.Bus.NSensors),
		},
		Record: true,
	}
}

// Fig1 runs the telemetry-lag experiment through the scenario runner.
func Fig1(fc Fig1Config) (*Fig1Result, error) {
	out, err := scenario.Run(Fig1Spec(fc))
	if err != nil {
		return nil, err
	}
	return Fig1FromOutcome(out)
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

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
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

// Fig1 is an open-loop telemetry probe, not a closed-loop sim run, so it
// registers its own scenario kind: the spec routes through scenario.Run
// (and therefore the result store) like every other experiment surface.
const fig1Kind = "fig1"

func init() {
	scenario.RegisterKind(fig1Kind, "Fig. 1 telemetry-lag probe (open-loop power sensor)", runFig1)
}

// Fig1Spec builds the declarative scenario for the telemetry probe.
func Fig1Spec(fc Fig1Config) scenario.Spec {
	return scenario.Spec{
		Kind:     fig1Kind,
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

// runFig1 executes the telemetry probe from its spec.
func runFig1(s scenario.Spec) (*scenario.Outcome, error) {
	cfg := DefaultConfig()
	cpu, _, err := cfg.Models()
	if err != nil {
		return nil, err
	}
	bus := sensor.Bus{
		BaseLatency:  units.Seconds(s.Params.Get("bus_base_latency", 2)),
		TransferTime: units.Seconds(s.Params.Get("bus_transfer_time", 0.5)),
		NSensors:     int(s.Params.Get("bus_sensors", 16)),
	}
	if err := bus.Validate(); err != nil {
		return nil, err
	}
	stepTime := units.Seconds(s.Params.Get("step_time", 100))

	step := workload.Step{Before: 0.1, After: 0.7, Time: stepTime}
	idlePower := float64(cpu.Power(0.1))
	span := float64(cpu.Power(0.7)) - idlePower

	delay, err := bus.DelayLine(idlePower)
	if err != nil {
		return nil, err
	}
	// The power sensor digitizes through the same 8-bit acquisition path.
	quant, err := sensor.NewQuantizer(8, 0, 255)
	if err != nil {
		return nil, err
	}
	pipe := sensor.NewPipeline(quant, delay)

	nTicks := int(float64(s.Duration) / float64(cfg.Tick))
	ts := trace.Set{trace.NewSeries("cpu_utilization", nTicks), trace.NewSeries("power_sensor", nTicks)}
	sUtil, sSensor := &ts[0], &ts[1]
	for k := 0; k < nTicks; k++ {
		t := units.Seconds(float64(k) * float64(cfg.Tick))
		u := step.At(t)
		p := float64(cpu.Power(u))
		meas := pipe.Sample(t, p)
		// Normalize both series to [0, 1] like the paper's plot.
		sUtil.MustAppend(float64(t), (float64(cpu.Power(u))-idlePower)/span)
		sSensor.MustAppend(float64(t), (meas-idlePower)/span)
	}
	scenario.AddSimTicks(int64(nTicks))

	// Measured lag: the half-rise crossing of the sensor trace relative
	// to the step instant.
	lag := units.Seconds(0)
	if xs := sSensor.Crossings(0.5); len(xs) > 0 {
		lag = units.Seconds(xs[0]) - stepTime
	}
	return &scenario.Outcome{
		Kind: s.Kind,
		Units: []scenario.Unit{{
			Name: "fig1",
			Metrics: map[string]float64{
				scenario.MetricTicks: float64(nTicks),
				"measured_lag_s":     float64(lag),
				"nominal_lag_s":      float64(bus.Lag()),
			},
			Series: ts,
		}},
	}, nil
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
		MeasuredLag: units.Seconds(u.Metric("measured_lag_s", 0)),
		NominalLag:  units.Seconds(u.Metric("nominal_lag_s", 0)),
	}, nil
}

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tuning"
	"repro/internal/units"
)

// Fig4Result reproduces Fig. 4: a deadzone fan controller under a fixed
// workload oscillates indefinitely because of the measurement lag and
// quantization.
type Fig4Result struct {
	Traces      trace.Set
	Oscillation tuning.Oscillation // classification of the fan-speed trace
	// AmplitudeRPM and PeriodSeconds describe the limit cycle.
	AmplitudeRPM  float64
	PeriodSeconds float64
}

// Fig4Config parameterizes the deadzone-oscillation demonstration.
type Fig4Config struct {
	Util     units.Utilization // fixed workload (paper: "a stable workload")
	BandLow  units.Celsius
	BandHigh units.Celsius
	Step     units.RPM // deadzone speed increment
	Duration units.Seconds
}

// DefaultFig4 returns the calibrated scenario: u = 0.6 with a ±0.1 °C
// deadzone and 500 rpm steps. The band is deliberately narrower than the
// ADC's 1 °C quantization step — a sub-degree comfort band is a natural
// design choice, but the converter cannot resolve it, so every reading
// falls outside the band and the controller ratchets up and down forever:
// the paper's measured Fig. 4 limit cycle.
func DefaultFig4() Fig4Config {
	return Fig4Config{Util: 0.6, BandLow: 74.4, BandHigh: 74.6, Step: 500, Duration: 1800}
}

// Fig4Spec builds the declarative deadzone-oscillation scenario.
func Fig4Spec(fc Fig4Config) scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "fig4",
		Duration: fc.Duration,
		Jobs: []scenario.JobSpec{{
			Name:     "deadzone",
			Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": float64(fc.Util)}},
			Policy: scenario.FactoryRef{Name: "deadzone", Params: scenario.Params{
				"band_lo": float64(fc.BandLow),
				"band_hi": float64(fc.BandHigh),
				"step":    float64(fc.Step),
			}},
			WarmStart: &sim.WarmPoint{Util: fc.Util, Fan: 2500},
		}},
		Record: true,
	}
}

// Fig4 runs the deadzone-oscillation experiment through the scenario
// runner.
func Fig4(fc Fig4Config) (*Fig4Result, error) {
	out, err := scenario.Run(Fig4Spec(fc))
	if err != nil {
		return nil, err
	}
	return Fig4FromOutcome(fc, out)
}

// Fig4FromOutcome classifies the limit cycle from a (possibly cached)
// outcome.
func Fig4FromOutcome(fc Fig4Config, out *scenario.Outcome) (*Fig4Result, error) {
	if len(out.Units) != 1 {
		return nil, fmt.Errorf("experiments: fig4 outcome has %d units", len(out.Units))
	}
	ts := out.Units[0].Series
	fan := ts.Get("fan_cmd")
	// Skip the first fan period of transient before classifying.
	vals := fan.Window(60, float64(fc.Duration)).V
	osc := tuning.Classify(vals, 250, 0.5)
	return &Fig4Result{
		Traces:        ts,
		Oscillation:   osc,
		AmplitudeRPM:  osc.Amplitude,
		PeriodSeconds: osc.Period, // fan trace sampled at 1 s per tick
	}, nil
}

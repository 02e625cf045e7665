package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tuning"
)

// Fig4Result reproduces Fig. 4: a deadzone fan controller under a fixed
// workload oscillates indefinitely because of the measurement lag and
// quantization. specs/fig4.json holds u = 0.6 with a ±0.1 °C deadzone
// and 500 rpm steps: the band is deliberately narrower than the ADC's
// 1 °C quantization step. A sub-degree comfort band is a natural design
// choice, but the converter cannot resolve it, so every reading falls
// outside the band and the controller ratchets up and down forever: the
// paper's measured Fig. 4 limit cycle.
type Fig4Result struct {
	Traces      trace.Set
	Oscillation tuning.Oscillation // classification of the fan-speed trace
	// AmplitudeRPM and PeriodSeconds describe the limit cycle.
	AmplitudeRPM  float64
	PeriodSeconds float64
}

// Fig4FromOutcome classifies the limit cycle from a (possibly cached)
// outcome of the fig4 spec, over the spec's horizon.
func Fig4FromOutcome(spec scenario.Spec, out *scenario.Outcome) (*Fig4Result, error) {
	if len(out.Units) != 1 {
		return nil, fmt.Errorf("experiments: fig4 outcome has %d units", len(out.Units))
	}
	ts := out.Units[0].Series
	fan := ts.Get("fan_cmd")
	// Skip the first fan period of transient before classifying.
	vals := fan.Window(60, float64(spec.Duration)).V
	osc := tuning.Classify(vals, 250, 0.5)
	return &Fig4Result{
		Traces:        ts,
		Oscillation:   osc,
		AmplitudeRPM:  osc.Amplitude,
		PeriodSeconds: osc.Period, // fan trace sampled at 1 s per tick
	}, nil
}

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// FaultResult reports the robustness experiment: the full DTM stack
// running through a telemetry fault versus a clean run of the same
// scenario. specs/faults.json wedges the sensor for two minutes at
// mid-run and drops 10% of the samples, over an hour at a 30 °C inlet.
type FaultResult struct {
	Clean   sim.Metrics
	Faulted sim.Metrics
}

// FaultsFromOutcome unpacks a (possibly store-cached) outcome.
func FaultsFromOutcome(out *scenario.Outcome) (*FaultResult, error) {
	clean, faulted := out.Unit("clean"), out.Unit("faulted")
	if clean == nil || faulted == nil {
		return nil, fmt.Errorf("experiments: faults outcome missing clean/faulted units")
	}
	return &FaultResult{
		Clean:   scenario.SimMetrics(clean),
		Faulted: scenario.SimMetrics(faulted),
	}, nil
}

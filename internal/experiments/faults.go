package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// FaultResult reports the robustness experiment: the full DTM stack
// running through a telemetry fault (a stuck sensor for StuckLen seconds
// in the middle of the run, plus a sustained dropout rate) versus a clean
// run of the same scenario.
type FaultResult struct {
	Clean   sim.Metrics
	Faulted sim.Metrics
}

// FaultConfig parameterizes the fault-injection run.
type FaultConfig struct {
	Duration    units.Seconds
	StuckAt     units.Seconds
	StuckLen    units.Seconds
	DropoutRate float64
	Seed        int64
}

// DefaultFaults returns the standard robustness scenario: a 2-minute
// stuck sensor at mid-run plus 10% sample dropout, over an hour.
func DefaultFaults() FaultConfig {
	return FaultConfig{Duration: 3600, StuckAt: 1800, StuckLen: 120, DropoutRate: 0.1, Seed: 5}
}

// FaultsSpec builds the declarative robustness scenario: the clean and
// fault-injected runs are independent jobs of one batch; the fault chain
// (clean physical path feeding a wedged/congested transport) is declared
// on the faulted job and assembled by the scenario runner.
func FaultsSpec(fc FaultConfig) scenario.Spec {
	base := DefaultConfig()
	base.Ambient = 30
	wref := scenario.FactoryRef{
		Name:   "noisy-square",
		Seed:   fc.Seed,
		Params: scenario.Params{"period": 600, "sigma": 0.04},
	}
	pref := scenario.FactoryRef{Name: "full"}
	warm := &sim.WarmPoint{Util: 0.1, Fan: 1500}
	return scenario.Spec{
		Kind:     scenario.KindBatch,
		Name:     "faults",
		Base:     &base,
		Duration: fc.Duration,
		Jobs: []scenario.JobSpec{
			{Name: "clean", Workload: wref, Policy: pref, WarmStart: warm},
			{Name: "faulted", Workload: wref, Policy: pref, WarmStart: warm,
				Faults: &scenario.FaultSpec{
					StuckAt:     fc.StuckAt,
					StuckLen:    fc.StuckLen,
					DropoutRate: fc.DropoutRate,
					DropoutSeed: fc.Seed,
				}},
		},
	}
}

// Faults runs the robustness experiment through the scenario runner.
func Faults(fc FaultConfig) (*FaultResult, error) {
	if fc.Duration <= 0 {
		return nil, fmt.Errorf("experiments: non-positive duration %v", fc.Duration)
	}
	out, err := scenario.Run(FaultsSpec(fc))
	if err != nil {
		return nil, err
	}
	return FaultsFromOutcome(out)
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

// Quickstart: declare the paper's evaluation as a scenario — the Table I
// server under the full DTM stack (adaptive PID fan control + rule-based
// coordination + predictive set-point + single-step scaling) driven by a
// noisy square wave — run it through the unified scenario layer and
// print the evaluation metrics. Everything is data: the workload and
// policy are vocabulary names, the platform is the embedded config, and
// the same spec could be hashed into a result store or swept over a grid.
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	// The platform: Table I parameters (96-160 W CPU, 29.4 W fan at
	// 8500 rpm, 10 s telemetry lag, 1 °C ADC quantization).
	cfg := sim.Default()

	spec := scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "quickstart",
		Base:     &cfg,
		Duration: 600,
		Jobs: []scenario.JobSpec{{
			// The workload: the evaluation's 0.1/0.7 square wave with
			// Gaussian noise (σ = 0.04).
			Workload: scenario.FactoryRef{
				Name:   "noisy-square",
				Seed:   1,
				Params: scenario.Params{"period": 300, "sigma": 0.04},
			},
			// The controller: the paper's complete proposal.
			Policy:    scenario.FactoryRef{Name: "full"},
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1500},
		}},
	}

	out, err := scenario.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	u := &out.Units[0]
	m := scenario.SimMetrics(u)
	fmt.Println("quickstart: 10 simulated minutes under", u.Labels["policy"])
	fmt.Printf("  deadline violations: %.2f%%\n", m.ViolationFrac*100)
	fmt.Printf("  fan energy:          %.1f J (mean %.0f rpm)\n", float64(m.FanEnergy), float64(m.MeanFanSpeed))
	fmt.Printf("  junction:            mean %.1f °C, max %.1f °C\n", float64(m.MeanJunction), float64(m.MaxJunction))
	fmt.Printf("  comfort zone (< %v) exceeded for %.0f s\n", cfg.TLimit, float64(m.TimeAboveLimit))
}

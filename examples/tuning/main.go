// Tuning: run the closed-loop Ziegler–Nichols procedure of Sec. IV-A
// against the full simulated platform (lag, quantization and all) at the
// paper's two operating regions, build the adaptive gain schedule, and
// verify the tuned closed loop is stable at both operating points.
package main

import (
	"fmt"
	"log"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	cfg := sim.Default()
	speeds := []units.RPM{2000, 6000}
	fmt.Println("Ziegler-Nichols closed-loop tuning at the Sec. IV-B regions")

	results, err := core.TuneRegions(cfg, speeds, 0.7, core.DefaultFanInterval, tuning.NoOvershoot)
	if err != nil {
		log.Fatal(err)
	}
	regions := make([]control.Region, 0, len(results))
	for _, r := range results {
		fmt.Printf("  %v: Ku = %.0f rpm/°C, Pu = %.0f s  ->  KP %.0f, KI %.0f, KD %.0f\n",
			r.Region.RefSpeed, float64(r.Ultimate.Ku), float64(r.Ultimate.Pu),
			r.Region.Gains.KP, r.Region.Gains.KI, r.Region.Gains.KD)
		regions = append(regions, r.Region)
	}
	ratio := results[1].Region.Gains.KP / results[0].Region.Gains.KP
	fmt.Printf("  gain ratio 6000/2000 = %.1fx — the Sec. IV-B nonlinearity\n\n", ratio)

	// Verify: the gain-scheduled controller holds both operating points
	// without sustained oscillation.
	adaptive, err := control.NewAdaptivePID(regions, 72, control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed})
	if err != nil {
		log.Fatal(err)
	}
	adaptive.SetSlewFrac(0.6, 400)
	guard, err := control.NewQuantGuard(adaptive, 1)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := core.NewFanOnlyPolicy("tuned-adaptive", guard, core.DefaultFanInterval, cfg)
	if err != nil {
		log.Fatal(err)
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(server, sim.RunConfig{
		Duration:  2400,
		Workload:  workload.PaperSquare(1200),
		Policy:    pol,
		Record:    true,
		WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
	})
	if err != nil {
		log.Fatal(err)
	}
	fan := res.Traces.Get("fan_cmd").Window(800, 2400)
	osc := tuning.Classify(fan.V, 300, 0.5)
	fmt.Printf("closed-loop verification over a 0.1/0.7 square wave:\n")
	fmt.Printf("  fan trace verdict: %v (amplitude ±%.0f rpm)\n", osc.Verdict, osc.Amplitude)
	fmt.Printf("  junction max %.1f °C, mean %.1f °C\n",
		float64(res.Metrics.MaxJunction), float64(res.Metrics.MeanJunction))
}

// Command fansim runs one simulation scenario from the command line:
// pick a policy, a workload and a horizon, get the paper's metrics and
// optionally the full traces as CSV. The -policy names are the scenario
// vocabulary's policies (see internal/scenario): fansim builds a
// declarative single-run spec and hands it to scenario.Run.
//
// Usage:
//
//	fansim [-policy full] [-workload square] [-duration 3600]
//	       [-ambient 25] [-period 600] [-noise 0.04] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fansim: ")

	var policies []string
	for _, e := range scenario.Policies() {
		policies = append(policies, e.Name)
	}
	policy := flag.String("policy", "full", "policy: "+strings.Join(policies, "|"))
	wl := flag.String("workload", "square", "workload: square|constant|prbs|markov|spiky")
	duration := flag.Float64("duration", 3600, "simulated seconds")
	ambient := flag.Float64("ambient", 25, "inlet temperature, °C")
	period := flag.Float64("period", 600, "square-wave period, s")
	noise := flag.Float64("noise", 0.04, "utilization noise σ")
	util := flag.Float64("util", 0.5, "utilization for -workload constant")
	seed := flag.Int64("seed", 42, "noise seed")
	holdFan := flag.Float64("holdfan", 4000, "fan speed for -policy hold")
	csvPath := flag.String("csv", "", "write traces to this CSV file")
	flag.Parse()

	cfg := sim.Default()
	cfg.Ambient = units.Celsius(*ambient)
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	wref, err := workloadRef(*wl, *period, *noise, *util, *seed, *duration)
	if err != nil {
		log.Fatal(err)
	}
	spec := scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "fansim",
		Base:     &cfg,
		Duration: units.Seconds(*duration),
		Jobs: []scenario.JobSpec{{
			Workload:  wref,
			Policy:    policyRef(*policy, *holdFan),
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
		}},
		Record: *csvPath != "",
	}
	out, err := scenario.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	u := &out.Units[0]
	m := scenario.SimMetrics(u)
	fmt.Printf("policy:            %s\n", u.Labels["policy"])
	fmt.Printf("simulated:         %d s\n", m.Ticks)
	fmt.Printf("deadline violations: %.2f%%\n", m.ViolationFrac*100)
	fmt.Printf("fan energy:        %.1f J (mean fan %.0f rpm)\n", float64(m.FanEnergy), float64(m.MeanFanSpeed))
	fmt.Printf("CPU energy:        %.1f J\n", float64(m.CPUEnergy))
	fmt.Printf("junction:          mean %.1f °C, max %.1f °C, above %v for %.0f s\n",
		float64(m.MeanJunction), float64(m.MaxJunction), cfg.TLimit, float64(m.TimeAboveLimit))
	fmt.Printf("delivered/demand:  %.3f / %.3f\n", float64(m.MeanDelivered), float64(m.MeanDemand))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := u.Series.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("traces:            %s\n", *csvPath)
	}
}

// workloadRef maps the CLI workload name to a workload reference.
func workloadRef(kind string, period, noise, util float64, seed int64, duration float64) (scenario.FactoryRef, error) {
	switch kind {
	case "square":
		return scenario.FactoryRef{Name: "noisy-square", Seed: seed,
			Params: scenario.Params{"period": period, "sigma": noise}}, nil
	case "constant":
		return scenario.FactoryRef{Name: "constant",
			Params: scenario.Params{"u": util}}, nil
	case "prbs":
		return scenario.FactoryRef{Name: "prbs", Seed: seed,
			Params: scenario.Params{"low": 0.1, "high": 0.7, "dwell": 60}}, nil
	case "markov":
		return scenario.FactoryRef{Name: "markov", Seed: seed,
			Params: scenario.Params{"idle_u": 0.1, "busy_u": 0.8, "dwell": 30, "p_idle_busy": 0.2, "p_busy_idle": 0.3}}, nil
	case "spiky":
		return scenario.FactoryRef{Name: "spiky-square", Seed: seed,
			Params: scenario.Params{"period": period, "sigma": noise, "duration": duration}}, nil
	default:
		return scenario.FactoryRef{}, fmt.Errorf("unknown workload %q", kind)
	}
}

// policyRef maps the CLI policy name to a policy reference; unknown
// names fall through to scenario.Run's validation, which lists the
// known ones.
func policyRef(kind string, holdFan float64) scenario.FactoryRef {
	switch kind {
	case "rcoord":
		return scenario.FactoryRef{Name: "rcoord", Params: scenario.Params{"ref_temp": 75}}
	case "hold":
		return scenario.FactoryRef{Name: "hold", Params: scenario.Params{"fan": holdFan}}
	default:
		return scenario.FactoryRef{Name: kind}
	}
}

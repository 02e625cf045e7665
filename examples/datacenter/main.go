// Datacenter: manage a small rack of heterogeneous servers through the
// scenario layer — cold/hot-aisle positions map to inlet temperatures,
// the hot aisle recirculates upstream exhaust into downstream intakes,
// and every node runs its own workload mix under its own DTM instance.
// The whole rack is one declarative fleet spec: nodes name their
// workloads and policies from the scenario vocabulary, scenario.Run resolves
// the shared inlet field through the fleet engine, and the printed view
// reads straight off the normalized outcome.
//
// The rack runs as a fleetcoord scenario, so one outcome carries both
// control modes: every node under its own DTM only (the "fleet:" local
// summary) and the same rack under the rack-level global coordinator,
// which migrates workload share away from hot-inlet nodes between
// relaxation passes (the "coordinated:" summary and the share column).
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// rackSeed roots all workload randomness; per-node streams derive from it
// through the stats.SubSeed mixing hash (consecutive literal seeds would
// put neighbours on correlated generator streams).
const rackSeed = 11

func main() {
	log.SetFlags(0)

	full := scenario.FactoryRef{Name: "full"}
	warm := &sim.WarmPoint{Util: 0.2, Fan: 1500}
	seed := func(i int) int64 { return stats.SubSeed(rackSeed, int64(i)) }

	spec := scenario.Spec{
		Kind:     scenario.KindFleetCoord,
		Name:     "datacenter",
		Duration: 3600,
		Fleet: &scenario.FleetSpec{
			Nodes: []scenario.FleetNode{
				{
					Name: "web-01", Aisle: "cold", Slot: 0, Policy: full, WarmStart: warm,
					Workload: scenario.FactoryRef{Name: "noisy-square", Seed: seed(0),
						Params: scenario.Params{"period": 400, "sigma": 0.04}},
				},
				{
					Name: "web-02", Aisle: "mid", Slot: 0, Policy: full, WarmStart: warm,
					Workload: scenario.FactoryRef{Name: "markov", Seed: seed(1),
						Params: scenario.Params{"idle_u": 0.15, "busy_u": 0.85, "dwell": 45, "p_idle_busy": 0.25, "p_busy_idle": 0.2}},
				},
				{
					Name: "batch-01", Aisle: "hot", Slot: 0, Policy: full, WarmStart: warm,
					Workload: scenario.FactoryRef{Name: "spiky-batch", Seed: seed(2),
						Params: scenario.Params{"u": 0.65, "sigma": 0.05, "first": 200, "every": 500, "len": 30, "level": 1.0, "count": 6}},
				},
				{
					Name: "batch-02", Aisle: "hot", Slot: 1, Policy: full, WarmStart: warm,
					Workload: scenario.FactoryRef{Name: "prbs", Seed: seed(3),
						Params: scenario.Params{"low": 0.2, "high": 0.8, "dwell": 90}},
				},
			},
			Supply:       24,
			AisleOffsets: &[3]units.Celsius{0, 4, 8},
			// A densely packed hot aisle: batch-02 breathes a strong dose
			// of batch-01's exhaust, which is exactly the slack the
			// coordinator's load placement exists to exploit.
			Recirc: 0.03,
		},
	}

	out, err := scenario.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	agg := out.Aggregate

	fmt.Printf("rack simulation: %d nodes, %.0f s horizon, per-node DTM (%s) + rack coordinator, %d recirculation pass(es)\n\n",
		len(out.Units), float64(spec.Duration), "R-coord+A-Tref+SSfan", int(agg[scenario.MetricPasses]))
	fmt.Printf("%-10s %6s %9s %7s %12s %12s %10s %8s\n",
		"node", "aisle", "inlet(°C)", "share", "violations", "fanE(kJ)", "meanFan", "Tmax")
	for i := range out.Units {
		u := &out.Units[i]
		fmt.Printf("%-10s %6s %9.1f %7.3f %11.2f%% %12.2f %10.0f %8.1f\n",
			u.Name, u.Labels["aisle"], u.Metric(scenario.MetricInletC, 0),
			u.Metric(scenario.MetricShare, 1),
			u.Metric(scenario.MetricViolationFrac, 0)*100,
			u.Metric(scenario.MetricFanEnergyJ, 0)/1000,
			u.Metric(scenario.MetricMeanFanRPM, 0),
			u.Metric(scenario.MetricMaxJunctionC, 0))
	}

	fmt.Printf("\nper aisle:\n")
	for _, aisle := range []string{"cold", "mid", "hot"} {
		prefix := "aisle_" + aisle + "_"
		n, ok := agg[prefix+"nodes"]
		if !ok || n == 0 {
			continue
		}
		fmt.Printf("  %-5s %d node(s): inlet %.1f°C, %.2f%% violations, %.1f kJ fan\n",
			aisle, int(n), agg[prefix+"mean_inlet_c"], agg[prefix+scenario.MetricViolationFrac]*100,
			agg[prefix+scenario.MetricFanEnergyJ]/1000)
	}

	local := func(key string) float64 { return agg[scenario.LocalMetricPrefix+key] }
	fmt.Printf("\nfleet: %.2f%% violations, %.1f kJ fan energy, %.1f kJ CPU energy (per-node control)\n",
		local(scenario.MetricViolationFrac)*100, local(scenario.MetricFanEnergyJ)/1000,
		local(scenario.MetricCPUEnergyJ)/1000)
	fmt.Printf("coordinated: %.2f%% violations, %.1f kJ fan energy, %.1f kJ CPU energy (best round %d, migrated share %.1f%%)\n",
		agg[scenario.MetricViolationFrac]*100, agg[scenario.MetricFanEnergyJ]/1000,
		agg[scenario.MetricCPUEnergyJ]/1000,
		int(agg[scenario.MetricCoordBestRound]), agg[scenario.MetricCoordMigrated]*100)
	fmt.Printf("fan share of total energy: %.2f%%\n", agg[scenario.MetricFanEnergyShare]*100)
	fmt.Printf("rack power: peak %.0f W, mean %.0f W\n",
		agg[scenario.MetricPeakRackPowerW], agg[scenario.MetricMeanRackPowerW])
}

package main

import (
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/units"
)

// The faultsweep subcommand: a resumable graceful-degradation campaign
// over fault type x severity x target control stack, with per-cell
// verdicts against fault-free baselines.

// builtinFaultTargets returns the named campaign target stacks. Fleet
// targets use explicit node lists (per-node fault injection needs them);
// the faulted node is always the first one — a single bad sensor in an
// otherwise healthy stack — and the hot aisle (n2, n3) shares one
// telemetry bus, the segment that dies in segment-type cells.
func builtinFaultTargets(duration float64) map[string]scenario.FaultTarget {
	rackNodes := func() []scenario.FleetNode {
		return []scenario.FleetNode{
			{
				Name: "n0", Aisle: "cold", Slot: 0,
				Workload: scenario.FactoryRef{Name: "square", Params: scenario.Params{"period": 600}},
				Policy:   scenario.FactoryRef{Name: "full"},
			},
			{
				Name: "n1", Aisle: "mid", Slot: 0,
				Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": 0.6}},
				Policy:   scenario.FactoryRef{Name: "full"},
			},
			{
				Name: "n2", Aisle: "hot", Slot: 0,
				Workload: scenario.FactoryRef{Name: "square", Params: scenario.Params{"period": 300}},
				Policy:   scenario.FactoryRef{Name: "full"},
			},
			{
				Name: "n3", Aisle: "hot", Slot: 1,
				Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": 0.4}},
				Policy:   scenario.FactoryRef{Name: "full"},
			},
		}
	}
	return map[string]scenario.FaultTarget{
		"single": {
			Name: "single",
			Spec: scenario.Spec{
				Kind:     scenario.KindSingle,
				Name:     "faultsweep/single",
				Duration: units.Seconds(duration),
				Jobs: []scenario.JobSpec{{
					Name:     "full",
					Workload: scenario.FactoryRef{Name: "square", Params: scenario.Params{"period": 600}},
					Policy:   scenario.FactoryRef{Name: "full"},
				}},
			},
		},
		"fleet": {
			Name: "fleet",
			Spec: scenario.Spec{
				Kind:     scenario.KindFleet,
				Name:     "faultsweep/fleet",
				Duration: units.Seconds(duration),
				Fleet:    &scenario.FleetSpec{Nodes: rackNodes()},
			},
			Segment: []string{"n2", "n3"},
		},
		"fleetcoord": {
			Name: "fleetcoord",
			Spec: scenario.Spec{
				Kind:     scenario.KindFleetCoord,
				Name:     "faultsweep/fleetcoord",
				Duration: units.Seconds(duration),
				Fleet:    &scenario.FleetSpec{Nodes: rackNodes()},
			},
			Segment: []string{"n2", "n3"},
		},
	}
}

// faultSweepCampaign parses the campaign axes, runs the (resumable)
// sweep, and prints the per-cell verdict table. When both sensing stacks
// are crossed, it also prints the dominance verdict — the robustness
// claim that redundant voting degrades no worse than the single chain
// anywhere while costing nothing when healthy.
func faultSweepCampaign(targetsStr, typesStr, sevsStr, stacksStr string, duration float64, seed int64, storeDir string) error {
	builtin := builtinFaultTargets(duration)
	var targets []scenario.FaultTarget
	segmentable := false
	for _, name := range strings.Split(targetsStr, ",") {
		name = strings.TrimSpace(name)
		t, ok := builtin[name]
		if !ok {
			return fmt.Errorf("unknown target %q (want: single|fleet|fleetcoord)", name)
		}
		targets = append(targets, t)
		segmentable = segmentable || len(t.Segment) > 0
	}
	var types []string
	for _, typ := range strings.Split(typesStr, ",") {
		typ = strings.TrimSpace(typ)
		if typ == scenario.FaultSegment && !segmentable {
			// Keep the default -types usable with jobs-only target lists.
			fmt.Printf("note: skipping %q cells (no selected target declares a bus segment)\n", typ)
			continue
		}
		types = append(types, typ)
	}
	var stacks []string
	for _, st := range strings.Split(stacksStr, ",") {
		stacks = append(stacks, strings.TrimSpace(st))
	}
	severities, err := parseFloats(sevsStr)
	if err != nil {
		return fmt.Errorf("bad -severities: %w", err)
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}

	campaign := scenario.FaultCampaign{
		Targets:    targets,
		Types:      types,
		Severities: severities,
		Stacks:     stacks,
		Seed:       seed,
	}
	before := scenario.ProbeSimTicks()
	res, err := scenario.FaultSweep(campaign, store)
	if err != nil {
		return err
	}
	ticks := scenario.ProbeSimTicks() - before

	fmt.Printf("Fault sweep — graceful degradation under non-ideal sensing (%d target(s) × %d stack(s) × %d type(s) × %d severit(y/ies), %.0f s horizon)\n\n",
		len(targets), len(stacks), len(types), len(severities), duration)
	fmt.Printf("baselines (fault-free):\n")
	fmt.Printf("  %-12s %-8s %12s %12s %12s %6s\n", "target", "stack", "violation(%)", "fanE(kJ)", "Tabove(s)", "cache")
	for _, b := range res.Baselines {
		viol, fanE, above := scenario.HeadlineMetrics(b.Outcome)
		fmt.Printf("  %-12s %-8s %12.2f %12.2f %12.1f %6s\n",
			b.Target, b.Stack, viol*100, fanE/1000, above, cacheWord(b.Cached))
	}

	fmt.Printf("\n%-12s %-8s %-12s %5s %10s %9s %11s %9s %7s %-13s %6s\n",
		"target", "stack", "fault", "sev", "dViol(%)", "dFan(%)", "dTabove(s)", "violWin", "latch", "verdict", "cache")
	counts := map[scenario.Verdict]int{}
	for _, c := range res.Cells {
		d := c.Degradation
		fmt.Printf("%-12s %-8s %-12s %5.2f %10.2f %9.2f %11.1f %9.2f %7.2f %-13s %6s\n",
			c.Target, c.Stack, c.Type, c.Severity,
			d.DViolationFrac*100, d.DFanEnergyRel*100, d.DTimeAboveS,
			d.MaxViolWindow, d.LatchFrac, c.Verdict, cacheWord(c.Cached))
		counts[c.Verdict]++
	}
	fmt.Printf("\nverdicts: %d graceful, %d degraded, %d pathological\n",
		counts[scenario.VerdictGraceful], counts[scenario.VerdictDegraded], counts[scenario.VerdictPathological])
	hasFull, hasVoting := false, false
	for _, st := range stacks {
		hasFull = hasFull || st == scenario.StackFull
		hasVoting = hasVoting || st == scenario.StackVoting
	}
	if hasFull && hasVoting {
		dominates, reasons := res.Dominance(scenario.StackVoting, scenario.StackFull, 0.01)
		fmt.Printf("verdict: voting dominates full: %v\n", dominates)
		for _, r := range reasons {
			fmt.Printf("  - %s\n", r)
		}
	}
	if store != nil {
		fmt.Printf("store %s: %d hits, %d misses\n", store.Dir(), res.Hits, res.Misses)
	}
	fmt.Printf("simulated %d ticks\n\n", ticks)
	return nil
}

// cacheWord renders a cell's cache status for the tables.
func cacheWord(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

package main

import (
	"fmt"

	"repro/internal/scenario"
)

// faultSweep runs a fault campaign file (the resumable sweep) and prints
// its baselines and per-cell verdict table. When the campaign crosses
// both sensing stacks, it also prints the dominance verdict — the
// robustness claim that redundant voting degrades no worse than the
// single chain anywhere while costing nothing when healthy.
func faultSweep(path, storeDir string) error {
	var campaign scenario.FaultCampaign
	if err := readFile(path, &campaign); err != nil {
		return err
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	before := scenario.ProbeSimTicks()
	res, err := scenario.FaultSweep(campaign, store)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ticks := scenario.ProbeSimTicks() - before

	fmt.Printf("Fault sweep — graceful degradation under non-ideal sensing (%s: %d baseline(s), %d cell(s))\n\n",
		path, len(res.Baselines), len(res.Cells))
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
	for _, st := range campaign.Stacks {
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

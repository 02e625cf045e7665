package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table3MC is the multi-seed Monte Carlo variant of Table III: the same
// five solutions evaluated across N independent workload-noise seeds, as
// one scenario whose (seed, solution) jobs all advance through a single
// warm lockstep batch. It reports each solution's mean ± population
// stddev across seeds, turning the paper's single-draw table into a
// sampling distribution — one number per cell stops being a coin flip.
//
// Usage:
//
//	res, err := experiments.Table3MC(experiments.DefaultTable3(), 8)
//	for _, row := range res.Rows {
//	    fmt.Printf("%s: %.2f ± %.2f %%\n",
//	        row.Name, row.ViolationPct.Mean, row.ViolationPct.Std)
//	}
//
// Seeds are tc.Seed, tc.Seed+1, ..., tc.Seed+nSeeds-1. Fan energy is
// normalized per seed against that seed's uncoordinated baseline before
// aggregating, matching how the single-seed table is read.

// MeanStd is a mean ± population standard deviation pair across seeds.
type MeanStd struct {
	Mean float64
	Std  float64
}

// Table3MCRow aggregates one solution across the Monte Carlo seeds.
type Table3MCRow struct {
	Name          string
	ViolationPct  MeanStd
	NormFanEnergy MeanStd
	HWThrottlePct MeanStd
	MaxJunction   MeanStd // °C
	MeanFanSpeed  MeanStd // rpm
}

// Table3MCResult is the aggregated comparison plus the per-seed tables.
type Table3MCResult struct {
	Seeds []int64
	Rows  []Table3MCRow
	// PerSeed holds the full single-seed tables in seed order, for
	// callers that want the raw draws.
	PerSeed []*Table3Result
}

// meanStd folds samples into a MeanStd (population stddev, like the rest
// of the repo's statistics).
func meanStd(xs []float64) MeanStd {
	return MeanStd{Mean: stats.Mean(xs), Std: stats.StdDev(xs)}
}

// Table3MCSpec builds the flat seeds × solutions scenario, seed-major so
// unit slot s*nSol+i is (seed s, solution i). Jobs of one seed share a
// workload reference, so the runner compiles that seed's demand trace
// once for its five solutions.
func Table3MCSpec(tc Table3Config, nSeeds int) scenario.Spec {
	prefs := table3PolicyRefs()
	jobs := make([]scenario.JobSpec, 0, nSeeds*len(prefs))
	for s := 0; s < nSeeds; s++ {
		seedCfg := tc
		seedCfg.Seed = tc.Seed + int64(s)
		wref := table3WorkloadRef(seedCfg)
		for _, pref := range prefs {
			jobs = append(jobs, scenario.JobSpec{
				// Units must stay addressable per (solution, seed) in a
				// persisted outcome; the policy label still carries the
				// paper's row name.
				Name:      fmt.Sprintf("%s/seed=%d", pref.Name, seedCfg.Seed),
				Workload:  wref,
				Policy:    pref,
				WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
			})
		}
	}
	base := table3Base(tc)
	return scenario.Spec{
		Kind:     scenario.KindLockstep,
		Name:     "table3mc",
		Base:     &base,
		Duration: tc.Duration,
		Jobs:     jobs,
	}
}

// Table3MC runs the Table III comparison across nSeeds independent noise
// seeds and aggregates mean ± stddev per solution. All seed × solution
// runs execute as one scenario, so on an m-core machine the wall time
// approaches the single-seed cost times ceil(5·nSeeds/m)/5.
func Table3MC(tc Table3Config, nSeeds int) (*Table3MCResult, error) {
	if nSeeds < 1 {
		return nil, fmt.Errorf("experiments: %d Monte Carlo seeds, want >= 1", nSeeds)
	}
	if tc.Duration <= 0 {
		return nil, fmt.Errorf("experiments: non-positive duration %v", tc.Duration)
	}
	out, err := scenario.Run(Table3MCSpec(tc, nSeeds))
	if err != nil {
		return nil, err
	}
	return Table3MCFromOutcome(tc, nSeeds, out)
}

// Table3MCFromOutcome aggregates a (possibly store-cached) outcome.
func Table3MCFromOutcome(tc Table3Config, nSeeds int, out *scenario.Outcome) (*Table3MCResult, error) {
	nSol := len(table3PolicyRefs())
	if len(out.Units) != nSeeds*nSol {
		return nil, fmt.Errorf("experiments: table3mc outcome has %d units, want %d", len(out.Units), nSeeds*nSol)
	}
	res := &Table3MCResult{Seeds: make([]int64, nSeeds)}
	for s := 0; s < nSeeds; s++ {
		res.Seeds[s] = tc.Seed + int64(s)
	}
	perSol := make([][]Table3Row, nSol)
	for s := 0; s < nSeeds; s++ {
		rows := table3RowsFromUnits(out.Units[s*nSol : (s+1)*nSol])
		res.PerSeed = append(res.PerSeed, &Table3Result{Rows: rows})
		for i, r := range rows {
			perSol[i] = append(perSol[i], r)
		}
	}
	for _, rows := range perSol {
		pick := func(f func(Table3Row) float64) MeanStd {
			xs := make([]float64, len(rows))
			for k, r := range rows {
				xs[k] = f(r)
			}
			return meanStd(xs)
		}
		res.Rows = append(res.Rows, Table3MCRow{
			Name:          rows[0].Name,
			ViolationPct:  pick(func(r Table3Row) float64 { return r.ViolationPct }),
			NormFanEnergy: pick(func(r Table3Row) float64 { return r.NormFanEnergy }),
			HWThrottlePct: pick(func(r Table3Row) float64 { return r.HWThrottlePct }),
			MaxJunction:   pick(func(r Table3Row) float64 { return float64(r.MaxJunction) }),
			MeanFanSpeed:  pick(func(r Table3Row) float64 { return float64(r.MeanFanSpeed) }),
		})
	}
	return res, nil
}

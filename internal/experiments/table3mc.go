package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// The Monte Carlo variant of Table III evaluates the same five solutions
// across N independent workload-noise seeds, as one scenario whose
// (seed, solution) jobs all advance through a single warm lockstep batch.
// It reports each solution's mean ± population stddev across seeds,
// turning the paper's single-draw table into a sampling distribution —
// one number per cell stops being a coin flip.
//
// Usage:
//
//	table3, err := specs.Load("table3.json")
//	mc := experiments.Table3MCSpec(table3, 8)
//	out, err := scenario.Run(mc)
//	res, err := experiments.Table3MCFromOutcome(table3, 8, out)
//	for _, row := range res.Rows {
//	    fmt.Printf("%s: %.2f ± %.2f %%\n",
//	        row.Name, row.ViolationPct.Mean, row.ViolationPct.Std)
//	}
//
// Seeds run from the Table III spec's own seed up: seed, seed+1, ...,
// seed+nSeeds-1. Fan energy is normalized per seed against that seed's
// uncoordinated baseline before aggregating, matching how the
// single-seed table is read.

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

// Table3MCSpec builds the flat seeds × solutions scenario from the Table
// III spec, seed-major so unit slot s*nSol+i is (seed s, solution i).
// Jobs of one seed share a workload reference, so the runner compiles
// that seed's demand trace once for its solutions. With nSeeds < 1 the
// spec has no jobs, and Validate refuses it.
func Table3MCSpec(table3 scenario.Spec, nSeeds int) scenario.Spec {
	var jobs []scenario.JobSpec
	for s := 0; s < nSeeds; s++ {
		seed := table3.Jobs[0].Workload.Seed + int64(s)
		for _, j := range ReseedTable3(table3, seed, table3.Duration).Jobs {
			// Units must stay addressable per (solution, seed) in a
			// persisted outcome; the policy label still carries the
			// paper's row name.
			j.Name = fmt.Sprintf("%s/seed=%d", j.Policy.Name, seed)
			jobs = append(jobs, j)
		}
	}
	table3.Name = "table3mc"
	table3.Jobs = jobs
	return table3
}

// Table3MCFromOutcome aggregates a (possibly store-cached) outcome of
// Table3MCSpec(table3, nSeeds).
func Table3MCFromOutcome(table3 scenario.Spec, nSeeds int, out *scenario.Outcome) (*Table3MCResult, error) {
	nSol := len(table3.Jobs)
	if nSeeds < 1 || nSol == 0 || len(out.Units) != nSeeds*nSol {
		return nil, fmt.Errorf("experiments: table3mc outcome has %d units, want %d seeds × %d solutions", len(out.Units), nSeeds, nSol)
	}
	res := &Table3MCResult{}
	perSol := make([][]Table3Row, nSol)
	for s := 0; s < nSeeds; s++ {
		res.Seeds = append(res.Seeds, table3.Jobs[0].Workload.Seed+int64(s))
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

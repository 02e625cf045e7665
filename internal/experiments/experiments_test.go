package experiments

import (
	"maps"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/tuning"
	"repro/specs"
)

// load decodes the named spec file under specs/.
func load(t *testing.T, name string) scenario.Spec {
	t.Helper()
	spec, err := specs.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// run runs a spec, failing the test on error.
func run(t *testing.T, spec scenario.Spec) *scenario.Outcome {
	t.Helper()
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// shortTable3 is specs/table3.json at its own seed, cut to 1200 s.
func shortTable3(t *testing.T) scenario.Spec {
	t.Helper()
	t3 := load(t, "table3.json")
	return ReseedTable3(t3, t3.Jobs[0].Workload.Seed, 1200)
}

// TestFig1TelemetryLag asserts the paper's Fig. 1 claim: the power-sensor
// reading follows the utilization step with a ~10 s lag caused by the I2C
// path.
func TestFig1TelemetryLag(t *testing.T) {
	res, err := Fig1FromOutcome(run(t, load(t, "fig1.json")))
	if err != nil {
		t.Fatal(err)
	}
	if res.NominalLag != 10 {
		t.Fatalf("nominal lag = %v, want 10 s (16-sensor bus)", res.NominalLag)
	}
	if math.Abs(float64(res.MeasuredLag-res.NominalLag)) > 2 {
		t.Errorf("measured lag %v differs from nominal %v by > 2 s", res.MeasuredLag, res.NominalLag)
	}
	util := res.Traces.Get("cpu_utilization")
	sensor := res.Traces.Get("power_sensor")
	if util == nil || sensor == nil {
		t.Fatal("missing traces")
	}
	// Before the step both are near 0 (the power ADC quantizes to whole
	// watts, so a small offset remains); at the end both are near 1.
	if v, _ := sensor.ValueAt(50); math.Abs(v) > 0.05 {
		t.Errorf("sensor before step = %v, want ~0", v)
	}
	if v, _ := sensor.ValueAt(690); math.Abs(v-1) > 0.05 {
		t.Errorf("sensor at end = %v, want ~1", v)
	}
	// In the lag window after the step the sensor still reads low while
	// the utilization is already high.
	if u, _ := util.ValueAt(105); u != 1 {
		t.Errorf("utilization after step = %v, want 1", u)
	}
	if v, _ := sensor.ValueAt(105); v > 0.5 {
		t.Errorf("sensor 5 s after step = %v, want still < 0.5 (lagging)", v)
	}
}

// TestFig1LagGrowsWithSensors asserts the bus-contention claim: more
// sensors per platform generation, longer lag.
func TestFig1LagGrowsWithSensors(t *testing.T) {
	withSensors := func(n float64) *Fig1Result {
		spec := load(t, "fig1.json")
		spec.Params = maps.Clone(spec.Params)
		spec.Params["bus_sensors"] = n
		res, err := Fig1FromOutcome(run(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rs, rb := withSensors(8), withSensors(32)
	if rb.MeasuredLag <= rs.MeasuredLag {
		t.Errorf("32-sensor lag %v not above 8-sensor lag %v", rb.MeasuredLag, rs.MeasuredLag)
	}
}

// TestFig3Phenomenology asserts the three claims of Fig. 3:
// gains tuned at 2000 rpm are stable but converge too slowly; gains tuned
// at 6000 rpm oscillate, especially at low fan speeds; the adaptive
// controller is stable and converges fastest.
func TestFig3Phenomenology(t *testing.T) {
	spec := load(t, "fig3.json")
	res, err := Fig3FromOutcome(spec, run(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.RefTemp != 68 {
		t.Errorf("T_ref = %v, want the spec's 68 °C", res.RefTemp)
	}
	byVariant := map[string]Fig3Run{}
	for _, r := range res.Runs {
		byVariant[r.Variant] = r
	}

	f2000, f6000, ad := byVariant["pid@2000rpm"], byVariant["pid@6000rpm"], byVariant["adaptive-pid"]

	// 2000 rpm gains: no significant low-phase oscillation, but slow
	// convergence after the step — the paper measures 210 s and calls
	// it "very slow".
	if f2000.LowPhaseAmp > 400 {
		t.Errorf("fixed@2000 low-phase amplitude = %.0f rpm, want < 400 (stable)", f2000.LowPhaseAmp)
	}
	if f2000.Settled && f2000.SettleAfterStep < 200 {
		t.Errorf("fixed@2000 settled in %v — the paper's point is that it is very slow (>= 200 s)", f2000.SettleAfterStep)
	}

	// 6000 rpm gains: oscillation in the low-speed region.
	if f6000.LowPhaseAmp < 400 {
		t.Errorf("fixed@6000 low-phase amplitude = %.0f rpm, want > 400 (unstable at low speed)", f6000.LowPhaseAmp)
	}

	// Adaptive: stable at low speed AND settles after the step.
	if ad.LowPhaseAmp > 300 {
		t.Errorf("adaptive low-phase amplitude = %.0f rpm, want < 300", ad.LowPhaseAmp)
	}
	if !ad.Settled {
		t.Fatal("adaptive controller never settled after the workload step")
	}
	// "The convergence time is drastically improved compared to the case
	// of using PID parameters at 2000 rpm": at least 2x faster.
	if f2000.Settled && float64(ad.SettleAfterStep) > 0.5*float64(f2000.SettleAfterStep) {
		t.Errorf("adaptive settling %v not drastically faster than fixed@2000's %v",
			ad.SettleAfterStep, f2000.SettleAfterStep)
	}
	if f6000.LowPhaseAmp < 2*(ad.LowPhaseAmp+100) {
		t.Errorf("6000-gain instability (%.0f) should dwarf adaptive ripple (%.0f)",
			f6000.LowPhaseAmp, ad.LowPhaseAmp)
	}
}

// TestFig4DeadzoneOscillates asserts Fig. 4: the deadzone controller
// limit-cycles under a fixed workload.
func TestFig4DeadzoneOscillates(t *testing.T) {
	spec := load(t, "fig4.json")
	res, err := Fig4FromOutcome(spec, run(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Oscillation.Verdict; v != tuning.Sustained && v != tuning.Growing {
		t.Fatalf("deadzone verdict = %v, want sustained oscillation (got %+v)", v, res.Oscillation)
	}
	if res.AmplitudeRPM < 300 {
		t.Errorf("oscillation amplitude = %.0f rpm, want a visible limit cycle", res.AmplitudeRPM)
	}
	if res.PeriodSeconds < 30 {
		t.Errorf("oscillation period = %.0f s, want at least one fan interval", res.PeriodSeconds)
	}
}

// TestFig5DynamicStability asserts Fig. 5: the proposed stack under a
// noisy dynamic load neither oscillates unstably nor overheats.
func TestFig5DynamicStability(t *testing.T) {
	spec := load(t, "fig5.json")
	res, err := Fig5FromOutcome(spec, run(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Oscillation.Verdict; v == tuning.Growing {
		t.Fatalf("proposed stack fan trace growing: %+v", res.Oscillation)
	}
	// The square wave forces periodic fan movement (that is the point of
	// variable fan speed control); instability would show as rail-to-rail
	// amplitude. Half the actuator span is a generous bound.
	if res.Oscillation.Amplitude > 3750 {
		t.Errorf("fan amplitude %.0f rpm approaches rail-to-rail", res.Oscillation.Amplitude)
	}
	if res.MaxJunction > 86 {
		t.Errorf("max junction %.1f °C far above the comfort zone", float64(res.MaxJunction))
	}
}

// TestTable3Shape asserts the qualitative Table III results at the
// default operating point (the paper's values are quoted beside each
// ordering below; the magnitudes differ, only the orderings are checked):
//
//	violations: E-coord > w/o coord > R-coord > +A-Tref > +SS_fan
//	fan energy: E-coord lowest; R-coord above baseline; the adaptive
//	            set-point cuts R-coord's energy; SS_fan stays close.
func TestTable3Shape(t *testing.T) {
	res := Table3FromOutcome(run(t, load(t, "table3.json")))
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	base, ecoord, rcoord, atref, ss := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3], res.Rows[4]

	// Violation ordering (paper: 26.12, 44.44, 14.14, 11.42, 6.92).
	if !(ecoord.ViolationPct > base.ViolationPct) {
		t.Errorf("E-coord violations %.2f%% not above baseline %.2f%%", ecoord.ViolationPct, base.ViolationPct)
	}
	if !(base.ViolationPct > rcoord.ViolationPct) {
		t.Errorf("baseline violations %.2f%% not above R-coord %.2f%%", base.ViolationPct, rcoord.ViolationPct)
	}
	if !(rcoord.ViolationPct > atref.ViolationPct) {
		t.Errorf("R-coord violations %.2f%% not above +A-Tref %.2f%%", rcoord.ViolationPct, atref.ViolationPct)
	}
	if !(atref.ViolationPct >= ss.ViolationPct) {
		t.Errorf("+A-Tref violations %.2f%% not >= +SSfan %.2f%%", atref.ViolationPct, ss.ViolationPct)
	}
	// The headline: the full stack reduces degradation by double digits
	// versus the baseline (paper: 19.2 pp).
	if base.ViolationPct-ss.ViolationPct < 10 {
		t.Errorf("full stack improvement = %.2f pp, want > 10", base.ViolationPct-ss.ViolationPct)
	}

	// Energy orderings (paper: 1, 0.703, 1.075, 0.801, 0.804).
	if base.NormFanEnergy != 1.0 {
		t.Errorf("baseline norm energy = %v, want 1", base.NormFanEnergy)
	}
	if !(ecoord.NormFanEnergy < 1.0) {
		t.Errorf("E-coord energy %.3f not below baseline", ecoord.NormFanEnergy)
	}
	if !(rcoord.NormFanEnergy > 1.0) {
		t.Errorf("R-coord energy %.3f not above baseline (fan does the work)", rcoord.NormFanEnergy)
	}
	if !(atref.NormFanEnergy < rcoord.NormFanEnergy) {
		t.Errorf("+A-Tref energy %.3f not below R-coord %.3f", atref.NormFanEnergy, rcoord.NormFanEnergy)
	}
	if !(ss.NormFanEnergy < rcoord.NormFanEnergy) {
		t.Errorf("+SSfan energy %.3f not below R-coord %.3f", ss.NormFanEnergy, rcoord.NormFanEnergy)
	}
	// E-coord must be the cheapest of all.
	for _, row := range res.Rows[2:] {
		if ecoord.NormFanEnergy >= row.NormFanEnergy {
			t.Errorf("E-coord energy %.3f not the lowest (vs %s %.3f)", ecoord.NormFanEnergy, row.Name, row.NormFanEnergy)
		}
	}
	// Nothing melted: the protection clamp should stay (almost) unused.
	for _, row := range res.Rows {
		if row.HWThrottlePct > 1 {
			t.Errorf("%s: silicon protection engaged %.2f%% of the time", row.Name, row.HWThrottlePct)
		}
	}
}

// TestTable3Deterministic verifies the whole evaluation is reproducible.
func TestTable3Deterministic(t *testing.T) {
	spec := shortTable3(t)
	a := Table3FromOutcome(run(t, spec))
	b := Table3FromOutcome(run(t, spec))
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("row %d differs between identical runs:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestFaultRobustness: the full stack must ride through a stuck sensor
// and sustained sample dropout without melting down or collapsing
// delivery — the whole point of designing for non-ideal measurements.
func TestFaultRobustness(t *testing.T) {
	res, err := FaultsFromOutcome(run(t, load(t, "faults.json")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulted.MaxJunction > res.Clean.MaxJunction+6 {
		t.Errorf("faults raised max junction from %.1f to %.1f",
			float64(res.Clean.MaxJunction), float64(res.Faulted.MaxJunction))
	}
	if res.Faulted.ViolationFrac > res.Clean.ViolationFrac+0.10 {
		t.Errorf("faults raised violations from %.2f%% to %.2f%%",
			res.Clean.ViolationFrac*100, res.Faulted.ViolationFrac*100)
	}
	// The silicon protection may engage briefly during the stuck window
	// but must not run the show.
	if res.Faulted.HWThrottleFrac > 0.05 {
		t.Errorf("protection engaged %.2f%% of the faulted run", res.Faulted.HWThrottleFrac*100)
	}
}

// TestTable3ParallelMatchesSequential: the batch engine must not perturb
// the table — any worker count produces bit-identical rows.
func TestTable3ParallelMatchesSequential(t *testing.T) {
	spec := shortTable3(t)
	table := func(workers int) *Table3Result {
		spec.Workers = workers
		return Table3FromOutcome(run(t, spec))
	}
	seq := table(1)
	for _, workers := range []int{0, 2, 5} {
		par := table(workers)
		for i := range seq.Rows {
			if par.Rows[i] != seq.Rows[i] {
				t.Errorf("workers=%d row %d: parallel %+v != sequential %+v",
					workers, i, par.Rows[i], seq.Rows[i])
			}
		}
	}
}

// TestTable3MC: the Monte Carlo table aggregates per-seed draws; seed 0's
// per-seed table must equal the plain single-seed table, the headline
// qualitative ordering must hold on the means, and a multi-seed run must
// show nonzero spread somewhere (the draws genuinely differ).
func TestTable3MC(t *testing.T) {
	spec := shortTable3(t)
	res, err := Table3MCFromOutcome(spec, 3, run(t, Table3MCSpec(spec, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.PerSeed) != 3 || len(res.Seeds) != 3 {
		t.Fatalf("shape: %d rows, %d per-seed, %d seeds", len(res.Rows), len(res.PerSeed), len(res.Seeds))
	}
	seed := spec.Jobs[0].Workload.Seed
	if res.Seeds[0] != seed || res.Seeds[2] != seed+2 {
		t.Errorf("seeds = %v, want consecutive from %d", res.Seeds, seed)
	}

	single := Table3FromOutcome(run(t, spec))
	for i := range single.Rows {
		if res.PerSeed[0].Rows[i] != single.Rows[i] {
			t.Errorf("per-seed[0] row %d %+v != single-seed row %+v",
				i, res.PerSeed[0].Rows[i], single.Rows[i])
		}
	}

	// Baseline normalization holds per seed, so the mean is exactly 1
	// with zero spread.
	if base := res.Rows[0]; base.NormFanEnergy.Mean != 1 || base.NormFanEnergy.Std != 0 {
		t.Errorf("baseline norm energy = %+v, want exactly 1 +- 0", base.NormFanEnergy)
	}
	anySpread := false
	for _, row := range res.Rows {
		if row.ViolationPct.Std > 0 || row.NormFanEnergy.Std > 0 {
			anySpread = true
		}
		if row.ViolationPct.Std > row.ViolationPct.Mean {
			t.Errorf("%s: stddev %.2f above mean %.2f — seeds wildly inconsistent",
				row.Name, row.ViolationPct.Std, row.ViolationPct.Mean)
		}
	}
	if !anySpread {
		t.Error("three seeds produced zero spread everywhere; seeds not applied?")
	}
}

// TestTable3MCValidation covers the error paths: a table of no seeds or
// of a negative horizon does not run, and an outcome whose unit count
// is not seeds × solutions does not fold.
func TestTable3MCValidation(t *testing.T) {
	t3 := load(t, "table3.json")
	if _, err := scenario.Run(Table3MCSpec(t3, 0)); err == nil {
		t.Error("0 seeds accepted")
	}
	if _, err := scenario.Run(Table3MCSpec(ReseedTable3(t3, 42, -5), 2)); err == nil {
		t.Error("negative duration accepted")
	}
	spec := shortTable3(t)
	out := run(t, spec)
	for _, nSeeds := range []int{0, 2} {
		if _, err := Table3MCFromOutcome(spec, nSeeds, out); err == nil {
			t.Errorf("a one-seed outcome folded as %d seeds", nSeeds)
		}
	}
}

// TestFaultsDeterministicAcrossWorkers mirrors batch_test.go for the
// fault-injection experiment: the same seed must reproduce bit-identical
// clean and faulted metrics on every repetition and at any worker count.
func TestFaultsDeterministicAcrossWorkers(t *testing.T) {
	spec := load(t, "faults.json")
	spec.Duration = 900
	for _, j := range spec.Jobs {
		if j.Faults != nil {
			j.Faults.StuckAt = 400
		}
	}
	faults := func(workers int) *FaultResult {
		spec.Workers = workers
		res, err := FaultsFromOutcome(run(t, spec))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := faults(1)
	for _, workers := range []int{1, 2, 0} {
		got := faults(workers)
		// Metrics is a struct of comparable scalars: bit-identical or bust.
		if got.Clean != want.Clean {
			t.Errorf("workers=%d: clean metrics drifted:\n%+v\n!=\n%+v", workers, got.Clean, want.Clean)
		}
		if got.Faulted != want.Faulted {
			t.Errorf("workers=%d: faulted metrics drifted:\n%+v\n!=\n%+v", workers, got.Faulted, want.Faulted)
		}
	}
}

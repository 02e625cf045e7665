package scenario

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// faultJobTarget is a small single-job control stack for campaign tests.
func faultJobTarget(dur units.Seconds) FaultTarget {
	return FaultTarget{
		Name: "solo",
		Spec: Spec{
			Kind:     KindSingle,
			Name:     "solo",
			Duration: dur,
			Jobs: []JobSpec{{
				Name:     "full",
				Workload: FactoryRef{Name: "square", Params: Params{"period": 120}},
				Policy:   FactoryRef{Name: "full"},
			}},
		},
	}
}

// faultFleetTarget is a two-node explicit rack, optionally coordinated.
func faultFleetTarget(dur units.Seconds, coordinated bool) FaultTarget {
	name, kind := "rack", KindFleet
	var params Params
	if coordinated {
		name, kind = "rackcoord", KindFleetCoord
		params = Params{"power_budget_w": 300}
	}
	return FaultTarget{
		Name: name,
		Spec: Spec{
			Kind:     kind,
			Name:     name,
			Duration: dur,
			Params:   params,
			Fleet: &FleetSpec{
				Nodes: []FleetNode{
					{
						Name: "n0", Aisle: "cold", Slot: 0,
						Workload: FactoryRef{Name: "square", Params: Params{"period": 120}},
						Policy:   FactoryRef{Name: "full"},
					},
					{
						Name: "n1", Aisle: "hot", Slot: 0,
						Workload: FactoryRef{Name: "constant", Params: Params{"u": 0.6}},
						Policy:   FactoryRef{Name: "full"},
					},
				},
			},
		},
	}
}

// TestFaultSpecFor pins the severity ladder: every type yields a valid,
// enabled FaultSpec; severity and type are range-checked.
func TestFaultSpecFor(t *testing.T) {
	for _, typ := range FaultTypes() {
		for _, sev := range []float64{0.1, 0.5, 1} {
			f, err := FaultSpecFor(typ, sev, 600, 42)
			if err != nil {
				t.Fatalf("%s@%g: %v", typ, sev, err)
			}
			if !f.enabled() {
				t.Errorf("%s@%g: disabled spec %+v", typ, sev, f)
			}
			if err := f.validate(); err != nil {
				t.Errorf("%s@%g: invalid spec: %v", typ, sev, err)
			}
		}
	}
	// Harsher severity must not shrink the injected fault.
	lo, _ := FaultSpecFor(FaultStuck, 0.2, 600, 42)
	hi, _ := FaultSpecFor(FaultStuck, 0.9, 600, 42)
	if hi.StuckLen <= lo.StuckLen {
		t.Errorf("stuck ladder not monotone: %v vs %v", lo.StuckLen, hi.StuckLen)
	}
	loS, _ := FaultSpecFor(FaultSlew, 0.2, 600, 42)
	hiS, _ := FaultSpecFor(FaultSlew, 0.9, 600, 42)
	if hiS.SlewLimitCPerS >= loS.SlewLimitCPerS {
		t.Errorf("slew ladder not monotone: %v vs %v", loS.SlewLimitCPerS, hiS.SlewLimitCPerS)
	}
	for _, bad := range []struct {
		typ string
		sev float64
		dur units.Seconds
	}{
		{"stuck", 0, 600},
		{"stuck", 1.5, 600},
		{"stuck", -0.1, 600},
		{"stuck", 0.5, 0},
		{"warp", 0.5, 600},
	} {
		if _, err := FaultSpecFor(bad.typ, bad.sev, bad.dur, 42); err == nil {
			t.Errorf("%+v: accepted", bad)
		}
	}
}

// TestFaultSweepValidate covers the faultsweep-specific structural rules.
func TestFaultSweepValidate(t *testing.T) {
	f := &FaultSpec{DropoutRate: 0.5, DropoutSeed: 1}
	mkJobs := func() Spec {
		s := faultJobTarget(120).Spec
		s.Kind = KindFaultSweep
		s.Jobs[0].Faults = f
		return s
	}
	good := mkJobs()
	if err := good.Validate(); err != nil {
		t.Fatalf("good jobs cell rejected: %v", err)
	}
	goodFleet := faultFleetTarget(120, false).Spec
	goodFleet.Kind = KindFaultSweep
	goodFleet.Fleet.Nodes[0].Faults = f
	if err := goodFleet.Validate(); err != nil {
		t.Fatalf("good fleet cell rejected: %v", err)
	}
	goodCoord := faultFleetTarget(120, true).Spec
	goodCoord.Kind = KindFaultSweep
	goodCoord.Fleet.Nodes[0].Faults = f
	goodCoord.Params["coordinated"] = 1
	if err := goodCoord.Validate(); err != nil {
		t.Fatalf("good coordinated cell rejected: %v", err)
	}
	bad := []struct {
		name string
		mk   func() Spec
	}{
		{"no faults", func() Spec {
			s := mkJobs()
			s.Jobs[0].Faults = nil
			return s
		}},
		{"both jobs and fleet", func() Spec {
			s := mkJobs()
			s.Fleet = goodFleet.Fleet
			return s
		}},
		{"neither block", func() Spec {
			s := mkJobs()
			s.Jobs = nil
			return s
		}},
		{"generated rack", func() Spec {
			s := goodFleet
			s.Fleet = &FleetSpec{Size: 4}
			return s
		}},
		{"multicore block", func() Spec {
			s := mkJobs()
			s.Multicore = &MulticoreSpec{Workload: FactoryRef{Name: "constant"}}
			return s
		}},
		{"coordinated zero", func() Spec {
			s := goodCoord
			s.Params = Params{"coordinated": 0}
			return s
		}},
		{"coordinated on jobs", func() Spec {
			s := mkJobs()
			s.Params = Params{"coordinated": 1}
			return s
		}},
		{"coord knob without coordinated", func() Spec {
			s := goodFleet
			s.Params = Params{"power_budget_w": 300}
			return s
		}},
		{"unknown param", func() Spec {
			s := goodCoord
			s.Params = Params{"coordinated": 1, "warp": 9}
			return s
		}},
		{"removed knob migration_gain", func() Spec {
			s := goodCoord
			s.Params = Params{"coordinated": 1, "migration_gain": 0.5}
			return s
		}},
		{"negative budget", func() Spec {
			s := goodCoord
			s.Params = Params{"coordinated": 1, "power_budget_w": -5}
			return s
		}},
		{"zero budget", func() Spec {
			s := goodCoord
			s.Params = Params{"coordinated": 1, "power_budget_w": 0}
			return s
		}},
	}
	for _, tc := range bad {
		s := tc.mk()
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestPathologyMetrics pins the trace-distillation math on synthetic
// series: a violation burst confined to one window, and a latched tail.
func TestPathologyMetrics(t *testing.T) {
	cfg := sim.Default()
	n := 400 // 1s ticks
	mk := func(name string, f func(i int) float64) trace.Series {
		s := trace.Series{Name: name, T: make([]float64, n), V: make([]float64, n)}
		for i := 0; i < n; i++ {
			s.T[i] = float64(i)
			s.V[i] = f(i)
		}
		return s
	}
	u := Unit{
		Name: "synthetic",
		Series: trace.Set{
			mk("demand", func(i int) float64 { return 0.8 }),
			// Violations on [100, 160): 60 bad ticks inside any 120 s
			// window that covers them -> max window fraction 60/121.
			mk("delivered", func(i int) float64 {
				if i >= 100 && i < 160 {
					return 0.5
				}
				return 0.8
			}),
			// Fan pinned at max for the final half; cap released (=1) for
			// the first half of the final quarter, held low after.
			mk("fan_actual", func(i int) float64 {
				if i >= 200 {
					return float64(cfg.FanMaxSpeed)
				}
				return 4000
			}),
			mk("cap", func(i int) float64 {
				if i >= 350 {
					return 0.4
				}
				return 1
			}),
		},
	}
	window, latch, err := pathologyMetrics(&u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 60.0 / 121.0; window != want {
		t.Errorf("max viol window = %v, want %v", window, want)
	}
	// Final quarter is ticks [300, 400); latched on [350, 400) -> 0.5.
	if latch != 0.5 {
		t.Errorf("latch frac = %v, want 0.5", latch)
	}

	// A unit without recorded series must error, not silently report 0.
	bare := Unit{Name: "bare"}
	if _, _, err := pathologyMetrics(&bare, cfg); err == nil {
		t.Error("missing series accepted")
	}
}

// TestRunFaultSweepMatchesPlain: a faultsweep cell is its target run
// plus pathology metrics — the underlying engine metrics must be
// bit-identical to the equivalent plain faulted spec, and the series
// must be stripped unless requested.
func TestRunFaultSweepMatchesPlain(t *testing.T) {
	f := &FaultSpec{StuckAt: 30, StuckLen: 60}

	cell := faultJobTarget(240).Spec
	cell.Kind = KindFaultSweep
	cell.Jobs[0].Faults = f
	out, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindFaultSweep {
		t.Errorf("kind = %q", out.Kind)
	}
	plain := faultJobTarget(240).Spec
	plain.Jobs[0].Faults = f
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SimMetrics(&out.Units[0]), SimMetrics(&ref.Units[0]); got != want {
		t.Errorf("engine metrics diverge:\nfaultsweep %+v\nplain      %+v", got, want)
	}
	for _, key := range []string{MetricMaxViolWindow, MetricLatchFrac} {
		if _, ok := out.Units[0].Metrics[key]; !ok {
			t.Errorf("unit missing %s", key)
		}
		if _, ok := out.Aggregate[key]; !ok {
			t.Errorf("aggregate missing %s", key)
		}
	}
	if len(out.Units[0].Series) != 0 {
		t.Errorf("series not stripped (%d kept)", len(out.Units[0].Series))
	}

	// Record=true keeps the series.
	cell.Record = true
	rec, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Units[0].Series.Get("junction") == nil {
		t.Error("recording cell lost its series")
	}

	// Same shape for a fleet cell: engine metrics match the plain fleet
	// run of the same faulted rack.
	fcell := faultFleetTarget(240, false).Spec
	fcell.Kind = KindFaultSweep
	fcell.Fleet.Nodes[0].Faults = f
	fout, err := Run(fcell)
	if err != nil {
		t.Fatal(err)
	}
	fplain := faultFleetTarget(240, false).Spec
	fplain.Fleet.Nodes[0].Faults = f
	fref, err := Run(fplain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fref.Units {
		if got, want := SimMetrics(&fout.Units[i]), SimMetrics(&fref.Units[i]); got != want {
			t.Errorf("fleet node %d metrics diverge:\nfaultsweep %+v\nplain      %+v", i, got, want)
		}
	}
	for k, want := range fref.Aggregate {
		if got := fout.Aggregate[k]; got != want {
			t.Errorf("fleet aggregate %s = %v, want %v", k, got, want)
		}
	}
}

// TestClassify pins the verdict thresholds.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		d    Degradation
		want Verdict
	}{
		{"clean", Degradation{}, VerdictGraceful},
		{"small drift", Degradation{DViolationFrac: 0.01, DFanEnergyRel: 0.02}, VerdictGraceful},
		{"violation jump", Degradation{DViolationFrac: 0.05}, VerdictDegraded},
		{"fan energy jump", Degradation{DFanEnergyRel: 0.10}, VerdictDegraded},
		{"thermal excursion", Degradation{DTimeAboveS: 30}, VerdictDegraded},
		{"sustained violation window", Degradation{MaxViolWindow: 0.99}, VerdictPathological},
		{"fan latch", Degradation{LatchFrac: 1}, VerdictPathological},
		{"latch beats degraded", Degradation{DViolationFrac: 0.05, LatchFrac: 0.99}, VerdictPathological},
	}
	for _, tc := range cases {
		if got := Classify(tc.d); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFaultSweepCampaignResume is the campaign end-to-end: every cell
// classified, baselines keyed as plain existing-kind specs, and a rerun
// against the same store serving everything from cache with zero
// simulation.
func TestFaultSweepCampaignResume(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	campaign := FaultCampaign{
		Targets:    []FaultTarget{faultJobTarget(120), faultFleetTarget(120, true)},
		Types:      []string{FaultStuck, FaultPlacement},
		Severities: []float64{0.3, 0.9},
		Seed:       7,
	}
	res, err := FaultSweep(campaign, store)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * 2 * 2
	if len(res.Cells) != wantCells || len(res.Baselines) != 2 {
		t.Fatalf("cells = %d, baselines = %d", len(res.Cells), len(res.Baselines))
	}
	if res.Hits != 0 || res.Misses != wantCells+2 {
		t.Errorf("cold campaign: %d hits, %d misses", res.Hits, res.Misses)
	}
	for _, c := range res.Cells {
		switch c.Verdict {
		case VerdictGraceful, VerdictDegraded, VerdictPathological:
		default:
			t.Errorf("cell %s/%s@%g: unclassified verdict %q", c.Target, c.Type, c.Severity, c.Verdict)
		}
	}
	// Baseline cells are the plain target specs: same key, same kind.
	for i, b := range res.Baselines {
		want, err := Key(campaign.Targets[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		if b.Key != want {
			t.Errorf("baseline %d key %s, want plain-spec key %s", i, b.Key, want)
		}
		if b.Outcome.Kind != campaign.Targets[i].Spec.Kind {
			t.Errorf("baseline %d kind %q", i, b.Outcome.Kind)
		}
	}

	// Warm rerun: all cells cached, zero ticks simulated, identical
	// verdicts.
	before := ProbeSimTicks()
	res2, err := FaultSweep(campaign, store)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Misses != 0 || res2.Hits != wantCells+2 {
		t.Errorf("warm campaign: %d hits, %d misses", res2.Hits, res2.Misses)
	}
	if ticks := ProbeSimTicks() - before; ticks != 0 {
		t.Errorf("warm campaign simulated %d ticks", ticks)
	}
	for i := range res.Cells {
		if res.Cells[i].Verdict != res2.Cells[i].Verdict {
			t.Errorf("cell %d verdict drifted: %s vs %s", i, res.Cells[i].Verdict, res2.Cells[i].Verdict)
		}
		if res.Cells[i].Degradation != res2.Cells[i].Degradation {
			t.Errorf("cell %d degradation drifted", i)
		}
	}
}

// TestFaultedFleetDeterministicAcrossWorkers: per-node fault injection
// must stay bit-identical at any worker count, through both the
// recirculation fixed point and the coordinator rounds — fault stage
// state lives inside each lane's pipeline, never shared across lanes.
func TestFaultedFleetDeterministicAcrossWorkers(t *testing.T) {
	for _, coordinated := range []bool{false, true} {
		spec := faultFleetTarget(240, coordinated).Spec
		spec.Fleet.Nodes[0].Faults = &FaultSpec{PlacementCoeff: 0.08, SlewLimitCPerS: 0.5}
		spec.Fleet.Nodes[1].Faults = &FaultSpec{DropoutRate: 0.4, DropoutSeed: 11, CalibSigma: 4, CalibSeed: 3}
		spec.Record = true
		spec.Workers = 1
		ref, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			spec.Workers = w
			out, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, ref) {
				t.Errorf("coordinated=%v: outcome differs at Workers=%d", coordinated, w)
			}
		}
	}
}

// TestFaultSweepRejectsBadCampaigns: empty axes, pre-faulted baselines
// and a target name, type or severity listed twice are
// campaign-construction errors. A second target of the same name would
// take the first one's baseline slot, and its cells would be compared
// against the other target's baseline.
func TestFaultSweepRejectsBadCampaigns(t *testing.T) {
	target := faultJobTarget(120)
	other := faultJobTarget(120)
	other.Spec.Jobs[0].Workload = FactoryRef{Name: "constant", Params: Params{"u": 0.6}}
	for _, tc := range []struct {
		name string
		c    FaultCampaign
	}{
		{"no targets", FaultCampaign{Types: []string{FaultStuck}, Severities: []float64{0.5}}},
		{"no types", FaultCampaign{Targets: []FaultTarget{target}, Severities: []float64{0.5}}},
		{"no severities", FaultCampaign{Targets: []FaultTarget{target}, Types: []string{FaultStuck}}},
		{"unknown type", FaultCampaign{Targets: []FaultTarget{target}, Types: []string{"warp"}, Severities: []float64{0.5}}},
		{"faulted baseline", func() FaultCampaign {
			t := faultJobTarget(120)
			t.Spec.Jobs[0].Faults = &FaultSpec{DropoutRate: 0.5}
			return FaultCampaign{Targets: []FaultTarget{t}, Types: []string{FaultStuck}, Severities: []float64{0.5}}
		}()},
		{"multicore target", FaultCampaign{
			Targets: []FaultTarget{{Name: "mc", Spec: Spec{
				Kind: KindMulticore, Duration: 120,
				Multicore: &MulticoreSpec{Workload: FactoryRef{Name: "constant"}},
			}}},
			Types: []string{FaultStuck}, Severities: []float64{0.5},
		}},
		{"repeated target", FaultCampaign{Targets: []FaultTarget{target, other}, Types: []string{FaultPlacement}, Severities: []float64{0.5}}},
		{"repeated type", FaultCampaign{Targets: []FaultTarget{target}, Types: []string{FaultStuck, FaultStuck}, Severities: []float64{0.5}}},
		{"repeated severity", FaultCampaign{Targets: []FaultTarget{target}, Types: []string{FaultStuck}, Severities: []float64{0.5, 0.5}}},
	} {
		if _, err := FaultSweep(tc.c, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

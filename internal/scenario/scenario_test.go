package scenario

import (
	"math"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// cheapSpec returns a fast deterministic single-run scenario for store
// and sweep tests; the ambient knob makes distinct cells.
func cheapSpec(ambient float64) Spec {
	cfg := sim.Default()
	cfg.Ambient = units.Celsius(ambient)
	return Spec{
		Kind:     KindSingle,
		Name:     "cheap",
		Base:     &cfg,
		Duration: 120,
		Jobs: []JobSpec{{
			Workload: FactoryRef{Name: "constant", Params: Params{"u": 0.6}},
			Policy:   FactoryRef{Name: "hold", Params: Params{"fan": 3000}},
		}},
	}
}

// fig1Spec is experiments.Fig1Spec(experiments.DefaultFig1()) spelled
// out, since experiments imports this package.
func fig1Spec() Spec {
	return Spec{
		Kind: KindFig1, Name: "fig1", Duration: 700, Record: true,
		Params: Params{"step_time": 100, "bus_base_latency": 2, "bus_transfer_time": 0.5, "bus_sensors": 16},
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	withFig1 := func(edit func(*Spec)) Spec {
		s := fig1Spec()
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown kind", Spec{Kind: "warp"}},
		{"no jobs", Spec{Kind: KindBatch, Duration: 10}},
		{"single with two jobs", func() Spec {
			s := cheapSpec(25)
			s.Jobs = append(s.Jobs, s.Jobs[0])
			return s
		}()},
		{"no duration", func() Spec {
			s := cheapSpec(25)
			s.Duration = 0
			return s
		}()},
		{"unknown workload", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Workload.Name = "nope"
			return s
		}()},
		{"unknown policy", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Policy.Name = "nope"
			return s
		}()},
		{"fleet without block", Spec{Kind: KindFleet, Duration: 10}},
		{"fleet with size and nodes", Spec{Kind: KindFleet, Duration: 10, Fleet: &FleetSpec{
			Size:  2,
			Nodes: []FleetNode{{Name: "a", Aisle: "cold"}},
		}}},
		{"fleet bad aisle", Spec{Kind: KindFleet, Duration: 10, Fleet: &FleetSpec{
			Nodes: []FleetNode{{
				Name: "a", Aisle: "tepid",
				Workload: FactoryRef{Name: "constant"},
				Policy:   FactoryRef{Name: "full"},
			}},
		}}},
		{"multicore without block", Spec{Kind: KindMulticore, Duration: 10}},
		{"fleet without duration", Spec{Kind: KindFleet, Fleet: &FleetSpec{Size: 2}}},
		{"fleet negative duration", Spec{Kind: KindFleet, Duration: -5, Fleet: &FleetSpec{Size: 2}}},
		{"sim kind with inert fleet block", func() Spec {
			s := cheapSpec(25)
			s.Fleet = &FleetSpec{Size: 2}
			return s
		}()},
		{"sim kind with inert params", func() Spec {
			s := cheapSpec(25)
			s.Params = Params{"x": 1}
			return s
		}()},
		{"fleet with inert jobs", Spec{Kind: KindFleet, Duration: 10,
			Fleet: &FleetSpec{Size: 2},
			Jobs:  []JobSpec{{Workload: FactoryRef{Name: "constant"}, Policy: FactoryRef{Name: "full"}}}}},
		{"multicore with inert fleet", Spec{Kind: KindMulticore, Duration: 10,
			Multicore: &MulticoreSpec{Workload: FactoryRef{Name: "constant"}},
			Fleet:     &FleetSpec{Size: 2}}},
		{"typo'd workload param", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Workload = FactoryRef{Name: "square", Params: Params{"perod": 300}}
			return s
		}()},
		{"seed on square", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Workload = FactoryRef{Name: "square", Seed: 7}
			return s
		}()},
		{"seed on a policy", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Policy.Seed = 7
			return s
		}()},
		{"pid-fixed fractional region", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Policy = FactoryRef{Name: "pid-fixed", Params: Params{"region": 0.5}}
			return s
		}()},
		{"spiky-batch fractional count", func() Spec {
			s := cheapSpec(25)
			s.Jobs[0].Workload = FactoryRef{Name: "spiky-batch", Seed: 1, Params: Params{"count": 2.5}}
			return s
		}()},
		{"fig1 with jobs", withFig1(func(s *Spec) { s.Jobs = cheapSpec(25).Jobs })},
		{"fig1 with voting", withFig1(func(s *Spec) { s.Voting = DefaultVoting() })},
		{"fig1 unknown param", withFig1(func(s *Spec) { s.Params["step_tme"] = 100 })},
		{"fig1 fractional bus_sensors", withFig1(func(s *Spec) { s.Params["bus_sensors"] = 1.5 })},
		{"fig1 no duration", withFig1(func(s *Spec) { s.Duration = 0 })},
		{"fig1 with a base", withFig1(func(s *Spec) { s.Base = &sim.Config{} })},
		{"fig1 with the default base", withFig1(func(s *Spec) {
			cfg := sim.Default()
			s.Base = &cfg
		})},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for _, good := range []Spec{cheapSpec(25), fig1Spec()} {
		if err := good.Validate(); err != nil {
			t.Errorf("good %s spec rejected: %v", good.Kind, err)
		}
	}
}

// TestEveryKindRejectsZeroDuration walks the kinds table: every kind has
// a valid fixture here, and each fixture fails Validate at duration 0, so
// a kind added later cannot skip the duration check.
func TestEveryKindRejectsZeroDuration(t *testing.T) {
	withKind := func(s Spec, kind string) Spec {
		s.Kind = kind
		return s
	}
	fault := faultJobTarget(60).Spec
	fault.Kind = KindFaultSweep
	fault.Jobs[0].Faults = &FaultSpec{StuckAt: 10, StuckLen: 20}
	valid := map[string]Spec{
		KindSingle:     cheapSpec(25),
		KindBatch:      withKind(cheapSpec(25), KindBatch),
		KindLockstep:   withKind(cheapSpec(25), KindLockstep),
		KindFleet:      {Kind: KindFleet, Duration: 60, Fleet: &FleetSpec{Size: 2, Seed: 1}},
		KindFleetCoord: goldenFleetCoordSpec(),
		KindMulticore:  {Kind: KindMulticore, Duration: 60, Multicore: &MulticoreSpec{Workload: FactoryRef{Name: "constant"}}},
		KindFaultSweep: fault,
		KindFig1:       fig1Spec(),
	}
	for _, kind := range names(kindTable) {
		s, ok := valid[kind]
		if !ok {
			t.Errorf("kind %q has no fixture", kind)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s fixture rejected: %v", kind, err)
		}
		s.Duration = 0
		if s.Validate() == nil {
			t.Errorf("%s accepts duration 0", kind)
		}
	}
}

// TestFig1RecordKeepsSeries: record is the one fig1 flag that reaches
// the outcome. Without it the probe returns the same metrics and no
// series, so the two specs' distinct store keys hold distinct cells.
func TestFig1RecordKeepsSeries(t *testing.T) {
	rec, err := Run(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	bare := fig1Spec()
	bare.Record = false
	out, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Units[0].Series) != 2 || out.Units[0].Series != nil {
		t.Fatalf("series: record %d, bare %d; want 2 and none", len(rec.Units[0].Series), len(out.Units[0].Series))
	}
	for k, v := range rec.Units[0].Metrics {
		if got := out.Units[0].Metrics[k]; got != v {
			t.Errorf("bare %s = %v, recorded %v", k, got, v)
		}
	}
}

// TestValidateRejectsBadFaults: out-of-range severities and inert fault
// blocks (populated but ignored at run time) must be rejected, whether
// the block hangs off a job or a fleet node.
func TestValidateRejectsBadFaults(t *testing.T) {
	nan := math.NaN()
	bad := []struct {
		name string
		f    FaultSpec
	}{
		{"dropout rate one", FaultSpec{DropoutRate: 1.0}},
		{"dropout rate negative", FaultSpec{DropoutRate: -0.1}},
		{"negative stuck_at", FaultSpec{StuckAt: -5, StuckLen: 10}},
		{"negative stuck_len", FaultSpec{StuckAt: 5, StuckLen: -10}},
		{"nan placement", FaultSpec{PlacementCoeff: nan}},
		{"negative placement", FaultSpec{PlacementCoeff: -0.1}},
		{"nan calib sigma", FaultSpec{CalibSigma: nan}},
		{"negative calib sigma", FaultSpec{CalibSigma: -1}},
		{"nan slew", FaultSpec{SlewLimitCPerS: nan}},
		{"negative slew", FaultSpec{SlewLimitCPerS: -0.1}},
		{"inert all-zero block", FaultSpec{}},
		{"inert stuck without window", FaultSpec{StuckAt: 100}},
		{"inert dropout seed only", FaultSpec{DropoutSeed: 7}},
		{"inert calib seed only", FaultSpec{CalibSeed: 7}},
	}
	for _, tc := range bad {
		f := tc.f
		js := cheapSpec(25)
		js.Jobs[0].Faults = &f
		if err := js.Validate(); err == nil {
			t.Errorf("job %s: accepted", tc.name)
		}
		fs := Spec{Kind: KindFleet, Duration: 10, Fleet: &FleetSpec{
			Nodes: []FleetNode{{
				Name: "a", Aisle: "cold",
				Workload: FactoryRef{Name: "constant"},
				Policy:   FactoryRef{Name: "full"},
				Faults:   &f,
			}},
		}}
		if err := fs.Validate(); err == nil {
			t.Errorf("fleet node %s: accepted", tc.name)
		}
	}
	// Each new stage alone makes a valid, non-inert block.
	for _, f := range []FaultSpec{
		{PlacementCoeff: 0.05},
		{CalibSigma: 4, CalibSeed: 2},
		{SlewLimitCPerS: 0.1},
	} {
		f := f
		s := cheapSpec(25)
		s.Jobs[0].Faults = &f
		if err := s.Validate(); err != nil {
			t.Errorf("good fault %+v rejected: %v", f, err)
		}
	}
}

// TestRunSingleMatchesDirect pins the single-kind runner to a direct
// sim.Run with the same construction.
func TestRunSingleMatchesDirect(t *testing.T) {
	spec := cheapSpec(28)
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := *spec.Base
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(server, sim.RunConfig{
		Duration: spec.Duration,
		Workload: mustWorkload(t, spec.Jobs[0].Workload, cfg),
		Policy:   sim.HoldPolicy{Fan: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := SimMetrics(&out.Units[0]); got != res.Metrics {
		t.Errorf("metrics:\nscenario %+v\ndirect   %+v", got, res.Metrics)
	}
	if out.Units[0].Labels["policy"] != "hold" {
		t.Errorf("policy label = %q", out.Units[0].Labels["policy"])
	}
}

func mustWorkload(t *testing.T, ref FactoryRef, cfg sim.Config) workload.Generator {
	t.Helper()
	g, err := buildWorkload(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBatchKindsBitIdentical: every job of a batch or lockstep spec (at
// any worker count) produces the unit metrics of the same job run as a
// single spec.
func TestBatchKindsBitIdentical(t *testing.T) {
	jobs := cheapSpec(27).Jobs
	want := make([]sim.Metrics, len(jobs))
	for i, j := range jobs {
		single := cheapSpec(27)
		single.Jobs = []JobSpec{j}
		out, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = SimMetrics(&out.Units[0])
	}
	for _, kind := range []string{KindBatch, KindLockstep} {
		for _, workers := range []int{0, 1, 2} {
			s := cheapSpec(27)
			s.Kind = kind
			s.Workers = workers
			s.Jobs = jobs
			out, err := Run(s)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			for i := range want {
				if got := SimMetrics(&out.Units[i]); got != want[i] {
					t.Errorf("%s workers=%d unit %d metrics differ:\n%+v\n%+v", kind, workers, i, got, want[i])
				}
			}
		}
	}
}

// TestFleetGeneratedMatchesDirect pins the generated-rack runner to a
// direct fleet.NewRack + fleet.Run with the same overrides.
func TestFleetGeneratedMatchesDirect(t *testing.T) {
	seed := stats.SubSeed(9, 4)
	spec := Spec{
		Kind:     KindFleet,
		Name:     "rack",
		Duration: 600,
		Fleet: &FleetSpec{
			Size:         4,
			Layout:       []string{"cold", "hot"},
			Seed:         seed,
			AisleOffsets: &[3]units.Celsius{0, 3, 6},
			Recirc:       0.01,
		},
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := fleet.NewRack(4, []fleet.Aisle{fleet.Cold, fleet.Hot}, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AisleOffsets = [fleet.NumAisles]units.Celsius{fleet.Cold: 0, fleet.Mid: 3, fleet.Hot: 6}
	cfg.Recirc = 0.01
	cfg.Duration = 600
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(out.Units) != len(res.Nodes) {
		t.Fatalf("units = %d, want %d", len(out.Units), len(res.Nodes))
	}
	for i, n := range res.Nodes {
		u := &out.Units[i]
		if u.Name != n.Name {
			t.Errorf("unit %d name %q != node %q", i, u.Name, n.Name)
		}
		if got := SimMetrics(u); got != n.Metrics {
			t.Errorf("node %s metrics differ:\n%+v\n%+v", n.Name, got, n.Metrics)
		}
		if got := u.Metric(MetricInletC, -1); got != float64(n.Inlet) {
			t.Errorf("node %s inlet %v != %v", n.Name, got, n.Inlet)
		}
		if u.Labels["aisle"] != n.Aisle.String() {
			t.Errorf("node %s aisle %q != %q", n.Name, u.Labels["aisle"], n.Aisle)
		}
	}
	if got := out.Aggregate[MetricPeakRackPowerW]; got != float64(res.PeakRackPower) {
		t.Errorf("peak rack power %v != %v", got, res.PeakRackPower)
	}
	if got := out.Aggregate[MetricViolationFrac]; got != res.ViolationFrac {
		t.Errorf("violation frac %v != %v", got, res.ViolationFrac)
	}
	if got := out.Aggregate[MetricPasses]; got != float64(res.Passes) {
		t.Errorf("passes %v != %v", got, res.Passes)
	}
}

// TestFleetGridMatchesFleetSweep pins the spec-per-cell grid (what the
// fleetsweep subcommand builds) to fleet.Sweep: same sub-seed keying on
// rack size, same spread-to-offsets mapping, bit-identical rack metrics.
func TestFleetGridMatchesFleetSweep(t *testing.T) {
	sizes := []int{2, 3}
	spreads := []float64{0, 4}
	const seed, recirc, duration = 1, 0.01, 400.0

	ref, err := fleet.Sweep(fleet.SweepConfig{
		RackSizes: sizes,
		Spreads:   []units.Celsius{0, 4},
		Seed:      seed,
		Recirc:    recirc,
		Duration:  duration,
	})
	if err != nil {
		t.Fatal(err)
	}

	var specs []Spec
	for _, size := range sizes {
		for _, spread := range spreads {
			specs = append(specs, Spec{
				Kind:     KindFleet,
				Duration: duration,
				Fleet: &FleetSpec{
					Size:         size,
					Seed:         stats.SubSeed(seed, int64(size)),
					AisleOffsets: &[3]units.Celsius{0, units.Celsius(spread / 2), units.Celsius(spread)},
					Recirc:       recirc,
				},
			})
		}
	}
	res, err := Sweep(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(ref) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(ref))
	}
	for i, cell := range res.Cells {
		want := ref[i].Result
		agg := cell.Outcome.Aggregate
		if agg[MetricViolationFrac] != want.ViolationFrac ||
			agg[MetricFanEnergyJ] != float64(want.FanEnergy) ||
			agg[MetricFanEnergyShare] != want.FanEnergyShare ||
			agg[MetricPeakRackPowerW] != float64(want.PeakRackPower) ||
			agg[MetricMaxJunctionC] != float64(want.MaxJunction) {
			t.Errorf("cell %d (size %d, spread %g) aggregates differ from fleet.Sweep",
				i, ref[i].RackSize, float64(ref[i].Spread))
		}
	}
}

// TestFleetGeneratedHonorsBase: a declared Base platform must shape a
// generated rack's nodes (it is part of the identity hash, so ignoring
// it would let one store cell masquerade as another).
func TestFleetGeneratedHonorsBase(t *testing.T) {
	base := sim.Default()
	base.FanMaxSpeed = 6000 // visibly different actuator ceiling
	spec := Spec{
		Kind:     KindFleet,
		Base:     &base,
		Duration: 600,
		Fleet:    &FleetSpec{Size: 2, Seed: 3},
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := fleet.NewRack(2, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Nodes {
		cfg.Nodes[i].Config = base
	}
	cfg.Duration = 600
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Nodes {
		if got := SimMetrics(&out.Units[i]); got != n.Metrics {
			t.Errorf("node %s metrics ignore Base:\n%+v\n%+v", n.Name, got, n.Metrics)
		}
	}

	// And the default-Base run must genuinely differ (the knob bites).
	def := spec
	def.Base = nil
	outDef, err := Run(def)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range out.Units {
		if SimMetrics(&out.Units[i]) != SimMetrics(&outDef.Units[i]) {
			same = false
		}
	}
	if same {
		t.Error("6000 rpm fan ceiling produced identical metrics to the default platform")
	}
}

// TestMulticoreMatchesDirect pins the multicore runner to a direct
// multicore.Run.
func TestMulticoreMatchesDirect(t *testing.T) {
	spec := Spec{
		Kind:     KindMulticore,
		Duration: 600,
		Multicore: &MulticoreSpec{
			Workload:   FactoryRef{Name: "noisy-square", Seed: 7, Params: Params{"period": 600, "sigma": 0.04}},
			Skewed:     true,
			Coordinate: true,
		},
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := &out.Units[0]
	if u.Metric(MetricTicks, 0) != 600 {
		t.Errorf("ticks = %v, want 600", u.Metric(MetricTicks, 0))
	}
	if u.Metric(MetricFanEnergyJ, 0) <= 0 {
		t.Errorf("fan energy = %v, want > 0", u.Metric(MetricFanEnergyJ, 0))
	}
	// Rerun: deterministic.
	out2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range u.Metrics {
		if out2.Units[0].Metrics[k] != v {
			t.Errorf("metric %s drifted between identical runs", k)
		}
	}
}

// TestWorkloadSharing: identical (ref, platform) pairs alias one
// generator instance; different refs do not.
func TestWorkloadSharing(t *testing.T) {
	cfg := sim.Default()
	ref := FactoryRef{Name: "noisy-square", Seed: 1, Params: Params{"period": 300, "sigma": 0.04}}
	cache := make(map[string]workload.Generator)
	g1, err := sharedWorkload(cache, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sharedWorkload(cache, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("identical refs built distinct generators")
	}
	other := ref
	other.Seed = 2
	g3, err := sharedWorkload(cache, other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Error("different seeds aliased one generator")
	}
}

// TestFleetCoordValidation: the coordinator kind requires the Fleet
// block, accepts only known coordinator knobs in Params, and the plain
// fleet kind still rejects Params outright.
func TestFleetCoordValidation(t *testing.T) {
	good := Spec{
		Kind:     KindFleetCoord,
		Duration: 300,
		Fleet:    &FleetSpec{Size: 2, Seed: 1, Recirc: 0.02},
		Params:   Params{"migration_gain": 0.4, "rounds": 1},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good fleetcoord spec rejected: %v", err)
	}
	bad := []struct {
		name string
		spec Spec
	}{
		{"missing fleet block", Spec{Kind: KindFleetCoord, Duration: 300}},
		{"unknown knob", func() Spec {
			s := good
			s.Params = Params{"warp_factor": 9}
			return s
		}()},
		{"fractional rounds", func() Spec {
			s := good
			s.Params = Params{"rounds": 2.5}
			return s
		}()},
		{"inert jobs", func() Spec {
			s := good
			s.Jobs = []JobSpec{{Workload: FactoryRef{Name: "constant"}, Policy: FactoryRef{Name: "full"}}}
			return s
		}()},
		{"fleet kind with coordinator knobs", Spec{
			Kind: KindFleet, Duration: 300,
			Fleet:  &FleetSpec{Size: 2},
			Params: Params{"migration_gain": 0.4},
		}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFleetCoordMatchesDirect pins the fleetcoord runner to a direct
// fleet.RunCoordinated with the same knobs: coordinated units, the
// local_ comparison aggregates, and the plan metadata all line up.
func TestFleetCoordMatchesDirect(t *testing.T) {
	spec := Spec{
		Kind:     KindFleetCoord,
		Name:     "coord",
		Duration: 600,
		Fleet:    &FleetSpec{Size: 4, Seed: 9, Recirc: 0.03},
		Params:   Params{"power_budget_w": 700},
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := fleet.NewRack(4, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recirc = 0.03
	cfg.Duration = 600
	res, err := fleet.RunCoordinated(cfg, fleet.CoordinatorConfig{PowerBudget: 700})
	if err != nil {
		t.Fatal(err)
	}

	for i, n := range res.Coordinated.Nodes {
		u := &out.Units[i]
		if got := SimMetrics(u); got != n.Metrics {
			t.Errorf("node %s coordinated metrics differ", n.Name)
		}
		if got := u.Metric(MetricShare, -1); got != res.Shares[i] {
			t.Errorf("node %s share %v != %v", n.Name, got, res.Shares[i])
		}
	}
	agg := out.Aggregate
	if agg[MetricViolationFrac] != res.Coordinated.ViolationFrac {
		t.Errorf("coordinated violations %v != %v", agg[MetricViolationFrac], res.Coordinated.ViolationFrac)
	}
	if agg[LocalMetricPrefix+MetricViolationFrac] != res.Local.ViolationFrac {
		t.Errorf("local violations %v != %v", agg[LocalMetricPrefix+MetricViolationFrac], res.Local.ViolationFrac)
	}
	if agg[LocalMetricPrefix+MetricFanEnergyJ] != float64(res.Local.FanEnergy) {
		t.Errorf("local fan energy differs")
	}
	if agg[MetricCoordBestRound] != float64(res.BestRound) ||
		agg[MetricCoordRounds] != float64(res.Rounds) ||
		agg[MetricCoordBudgetW] != float64(res.Budget) ||
		agg[MetricCoordMigrated] != res.MigratedShare {
		t.Error("coordinator plan metadata differs from the direct run")
	}
	// The headline comparison the sweeps print: coordinated never worse.
	if agg[MetricViolationFrac] > agg[LocalMetricPrefix+MetricViolationFrac] {
		t.Error("coordinated violations above local in one outcome")
	}

	// Deterministic across Workers.
	for _, workers := range []int{1, 3} {
		s := spec
		s.Workers = workers
		again, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range agg {
			if again.Aggregate[k] != v {
				t.Fatalf("workers=%d: aggregate %s drifted", workers, k)
			}
		}
	}
}

// TestFleetCoordSweepServedFromStore: coordinator cells resume from the
// content-addressed store like any other kind — the second pass is all
// hits and performs zero simulation ticks.
func TestFleetCoordSweepServedFromStore(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{
			Kind: KindFleetCoord, Name: "cell-a", Duration: 300,
			Fleet:  &FleetSpec{Size: 2, Seed: 1, Recirc: 0.03},
			Params: Params{"rounds": 1},
		},
		{
			Kind: KindFleetCoord, Name: "cell-b", Duration: 300,
			Fleet:  &FleetSpec{Size: 3, Seed: 2, Recirc: 0.03},
			Params: Params{"rounds": 1},
		},
	}
	cold, err := Sweep(specs, st)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Misses != 2 {
		t.Fatalf("cold sweep: %d misses, want 2", cold.Misses)
	}
	ticksBefore, runsBefore := ProbeSimTicks(), ProbeRuns()
	warm, err := Sweep(specs, st)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hits != 2 || warm.Misses != 0 {
		t.Fatalf("warm sweep: %d hits / %d misses, want 2/0", warm.Hits, warm.Misses)
	}
	if d := ProbeSimTicks() - ticksBefore; d != 0 {
		t.Errorf("warm coordinator sweep simulated %d ticks, want 0", d)
	}
	if d := ProbeRuns() - runsBefore; d != 0 {
		t.Errorf("warm coordinator sweep executed %d runs, want 0", d)
	}
	for i := range warm.Cells {
		a, b := cold.Cells[i].Outcome, warm.Cells[i].Outcome
		if a.Aggregate[MetricViolationFrac] != b.Aggregate[MetricViolationFrac] ||
			a.Aggregate[LocalMetricPrefix+MetricViolationFrac] != b.Aggregate[LocalMetricPrefix+MetricViolationFrac] {
			t.Errorf("cell %d: cached coordinator outcome differs", i)
		}
	}
}

package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// coordRack returns the coordinator test rack: recirculation strong
// enough that per-node control leaves rack-level slack on the table.
func coordRack(t testing.TB, n int, recirc float64, workers int) Config {
	t.Helper()
	cfg, err := NewRack(n, nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 900
	cfg.Recirc = units.KPerW(recirc)
	cfg.Workers = workers
	return cfg
}

// TestCoordinatedDeterministicAcrossWorkers mirrors the fixed-point
// acceptance bar for the coordinator: the whole multi-round procedure —
// baseline, migration plans, arbitration, best-round selection — must be
// bit-identical at any Workers value. The 24-node rack's passes step
// enough lanes to split over two and four workers.
func TestCoordinatedDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		nodes   int
		budget  units.Watt
		workers []int
	}{
		{6, 700, []int{2, 4, 0}},
		{24, 2800, []int{2, 4}},
	} {
		want, err := RunCoordinated(coordRack(t, tc.nodes, 0.03, 1), tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			got, err := RunCoordinated(coordRack(t, tc.nodes, 0.03, workers), tc.budget)
			if err != nil {
				t.Fatalf("nodes=%d workers=%d: %v", tc.nodes, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("nodes=%d workers=%d: coordinated result differs from serial run", tc.nodes, workers)
			}
		}
	}
}

// rebuildCoordinated is RunCoordinated's per-round rebuild reference: the
// same rounds, but every relaxation runs on a freshly built rack with
// that round's plan applied, so no lane result carries over from one
// round to the next.
func rebuildCoordinated(t *testing.T, c Config, budget units.Watt) *CoordResult {
	t.Helper()
	probe, err := newRack(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coordinate(c, budget, probe.ls, func(p coordPlan, record bool) (*Result, error) {
		r, err := newRack(c)
		if err != nil {
			return nil, err
		}
		if err := r.apply(p); err != nil {
			return nil, err
		}
		return r.relax(record)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoordinatedMatchesPerRoundRebuild: re-stepping only the lanes whose
// plan or inlet moved between rounds must leave every CoordResult field
// as resolving each round on a fresh rack does, with and without trace
// capture. Only the stepped lane-ticks may differ, and only downwards; on
// the budgeted 8-node rack some nodes keep their plan and inlet from one
// round to the next, so the warm rack must step fewer.
func TestCoordinatedMatchesPerRoundRebuild(t *testing.T) {
	cases := []struct {
		nodes  int
		seed   int64
		budget units.Watt
		fewer  bool
	}{
		{6, 2, 1100, false}, // a coordination round wins
		{8, 2, 1100, true},  // local control wins; nodes keep their plan
		{6, 99, 0, false},   // placement only
	}
	for _, tc := range cases {
		for _, record := range []bool{false, true} {
			cfg, err := NewRack(tc.nodes, nil, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = 900
			cfg.Recirc = 0.03
			cfg.Workers = 1
			cfg.Record = record
			label := fmt.Sprintf("nodes=%d seed=%d budget=%v record=%v", tc.nodes, tc.seed, tc.budget, record)
			got, err := RunCoordinated(cfg, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			want := rebuildCoordinated(t, cfg, tc.budget)
			if got.LaneTicks > want.LaneTicks || (tc.fewer && got.LaneTicks == want.LaneTicks) {
				t.Errorf("%s: warm rack stepped %d lane-ticks, rebuild %d", label, got.LaneTicks, want.LaneTicks)
			}
			if got.Rounds == 0 {
				t.Errorf("%s: no coordination round ran", label)
			}
			g, w := *got, *want
			for _, r := range []*CoordResult{&g, &w} {
				local, coordinated := *r.Local, *r.Coordinated
				local.LaneTicks, coordinated.LaneTicks = 0, 0
				r.Local, r.Coordinated, r.LaneTicks = &local, &coordinated, 0
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: coordinated result differs from the per-round rebuild", label)
			}
		}
	}
}

// TestCoordinatedBeatsOrTiesLocal: the best-round fallback makes the
// coordinated result never worse than local control on the (violations,
// fan energy) objective, at any recirculation strength — and the Local
// baseline embedded in the result is exactly what Run produces.
func TestCoordinatedBeatsOrTiesLocal(t *testing.T) {
	for _, recirc := range []float64{0, 0.02, 0.05} {
		cfg := coordRack(t, 6, recirc, 0)
		res, err := RunCoordinated(cfg, 0)
		if err != nil {
			t.Fatalf("recirc=%v: %v", recirc, err)
		}
		local, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Local, local) {
			t.Errorf("recirc=%v: embedded Local baseline differs from Run", recirc)
		}
		if res.Coordinated.ViolationFrac > res.Local.ViolationFrac {
			t.Errorf("recirc=%v: coordinated violations %v above local %v",
				recirc, res.Coordinated.ViolationFrac, res.Local.ViolationFrac)
		}
		if res.Coordinated.ViolationFrac == res.Local.ViolationFrac &&
			res.Coordinated.FanEnergy > res.Local.FanEnergy {
			t.Errorf("recirc=%v: coordinated fan energy %v above local %v at equal violations",
				recirc, res.Coordinated.FanEnergy, res.Local.FanEnergy)
		}
	}
}

// TestCoordinatedImprovesRecircHeavyRack is the acceptance bar from the
// fleet-control ROADMAP item: on a recirculation-heavy rack the
// coordinator must strictly improve violations or fan energy over
// per-node control, not merely tie it.
func TestCoordinatedImprovesRecircHeavyRack(t *testing.T) {
	res, err := RunCoordinated(coordRack(t, 6, 0.03, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestRound == 0 {
		t.Fatal("coordinator never beat local control on the recirculation-heavy rack")
	}
	if res.Coordinated.ViolationFrac >= res.Local.ViolationFrac &&
		res.Coordinated.FanEnergy >= res.Local.FanEnergy {
		t.Errorf("no strict improvement: violations %v -> %v, fan energy %v -> %v",
			res.Local.ViolationFrac, res.Coordinated.ViolationFrac,
			res.Local.FanEnergy, res.Coordinated.FanEnergy)
	}
	if res.MigratedShare <= 0 {
		t.Errorf("winning plan migrated no share")
	}
}

// TestMigratePreservesDemand: the placement step conserves the rack's
// demand-weighted share exactly and respects the [shareMin, shareMax]
// bounds, whatever the inlet field looks like.
func TestMigratePreservesDemand(t *testing.T) {
	inlets := []units.Celsius{24, 26, 31, 33, 29, 24.5}
	meanDemand := []float64{0.5, 0.65, 0.4, 0.7, 0.55, 0.6}
	maxShare := []float64{shareMax, shareMax, shareMax, shareMax, shareMax, shareMax}
	shares := []float64{1, 1, 1, 1, 1, 1}
	for round := 0; round < 4; round++ {
		next := migrate(inlets, meanDemand, maxShare, shares)
		var before, after float64
		for i := range shares {
			before += shares[i] * meanDemand[i]
			after += next[i] * meanDemand[i]
			if next[i] < shareMin-1e-12 || next[i] > shareMax+1e-12 {
				t.Fatalf("round %d node %d: share %v outside [%v, %v]",
					round, i, next[i], shareMin, shareMax)
			}
		}
		if math.Abs(after-before) > 1e-9 {
			t.Fatalf("round %d: demand not conserved (%v -> %v)", round, before, after)
		}
		shares = next
	}
	// Hot nodes shed, cool nodes absorb.
	if shares[3] >= 1 {
		t.Errorf("hottest node kept share %v", shares[3])
	}
	if shares[0] <= 1 {
		t.Errorf("coolest node kept share %v", shares[0])
	}

	// A flat inlet field migrates nothing.
	flat := migrate([]units.Celsius{25, 25, 25}, []float64{0.5, 0.5, 0.5},
		[]float64{shareMax, shareMax, shareMax}, []float64{1, 1, 1})
	for i, s := range flat {
		if s != 1 {
			t.Errorf("flat field moved node %d to %v", i, s)
		}
	}
}

// TestCoordinatorBudgetInvariants is the fleet-level half of the budget
// property test: across rack sizes and seeds, the arbitrated per-node cap
// ceilings never admit more total power than the resolved global budget
// and never dip below the local cap floor.
func TestCoordinatorBudgetInvariants(t *testing.T) {
	for _, n := range []int{1, 3, 5, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg, err := NewRack(n, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = 300
			cfg.Recirc = 0.02
			cfg.Workers = 1
			cpu, _, err := cfg.Nodes[0].Config.Models()
			if err != nil {
				t.Fatal(err)
			}
			// A budget at 80% of the full-load draw forces the
			// arbitration to actually ration.
			budget := units.Watt(0.8 * float64(n) * float64(cpu.Power(1)))
			local, err := Run(cfg)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			ceils, resolved, err := arbitrate(cfg, budget, local)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if ceils == nil {
				t.Fatalf("n=%d seed=%d: budgeted arbitration granted no cap ceilings", n, seed)
			}
			if resolved < budget {
				t.Fatalf("n=%d seed=%d: resolved budget %v below configured %v", n, seed, resolved, budget)
			}
			total := 0.0
			for i, ceil := range ceils {
				if ceil < 0.5 {
					t.Fatalf("n=%d seed=%d node %d: cap ceiling %v below the local floor", n, seed, i, ceil)
				}
				if ceil > 1 {
					t.Fatalf("n=%d seed=%d node %d: cap ceiling %v above 1", n, seed, i, ceil)
				}
				nodeCPU, _, err := cfg.Nodes[i].Config.Models()
				if err != nil {
					t.Fatal(err)
				}
				total += float64(nodeCPU.Power(ceil))
			}
			if total > float64(resolved)+1e-6 {
				t.Fatalf("n=%d seed=%d: ceilings admit %v W against budget %v", n, seed, total, resolved)
			}

			// The same invariants hold for whatever plan RunCoordinated
			// ends up shipping (nil ceilings mean local control won).
			res, err := RunCoordinated(cfg, budget)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			shipped := 0.0
			for i, ceil := range res.CapCeils {
				if ceil < 0.5 || ceil > 1 {
					t.Fatalf("n=%d seed=%d node %d: shipped cap ceiling %v outside [0.5, 1]", n, seed, i, ceil)
				}
				nodeCPU, _, _ := cfg.Nodes[i].Config.Models()
				shipped += float64(nodeCPU.Power(ceil))
			}
			if res.CapCeils != nil && shipped > float64(res.Budget)+1e-6 {
				t.Fatalf("n=%d seed=%d: shipped ceilings admit %v W against budget %v", n, seed, shipped, res.Budget)
			}
		}
	}
}

// TestCoordinatedRecordTraces: Record captures the winning round's full
// trace set on the Coordinated result.
func TestCoordinatedRecordTraces(t *testing.T) {
	cfg := coordRack(t, 3, 0.03, 1)
	cfg.Duration = 300
	cfg.Record = true
	res, err := RunCoordinated(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range res.Coordinated.Nodes {
		if node.Traces == nil || node.Traces.Get("total_power") == nil {
			t.Fatalf("node %q missing recorded traces", node.Name)
		}
	}
}

// TestCoordinatorConfigValidation: a negative or non-finite budget
// fails loudly.
func TestCoordinatorConfigValidation(t *testing.T) {
	cfg := coordRack(t, 2, 0.01, 1)
	cfg.Duration = 120
	for _, budget := range []units.Watt{-5, units.Watt(math.Inf(1)), units.Watt(math.NaN())} {
		if _, err := RunCoordinated(cfg, budget); err == nil {
			t.Errorf("bad coordinator budget %v accepted", budget)
		}
	}
}

// TestLimitedPolicyClamps: the wrapper applies the coordinator's cap
// ceiling and nothing else.
func TestLimitedPolicyClamps(t *testing.T) {
	inner := sim.HoldPolicy{Fan: 6000}
	p := &limitedPolicy{inner: inner, capCeil: 0.8}
	cmd := p.Step(sim.Observation{})
	if cmd.Fan != 6000 {
		t.Errorf("fan %v, want the inner command 6000", cmd.Fan)
	}
	if cmd.Cap != 0.8 {
		t.Errorf("cap %v, want ceiling 0.8", cmd.Cap)
	}
	loose := &limitedPolicy{inner: inner}
	cmd = loose.Step(sim.Observation{})
	if cmd.Fan != 6000 || cmd.Cap != 1 {
		t.Errorf("unlimited wrapper altered the command: %+v", cmd)
	}
	if p.Name() != "hold+rack" {
		t.Errorf("name %q", p.Name())
	}
}

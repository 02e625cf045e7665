package multicore

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	cfg := sim.Default()
	cfg.Tick = 0
	if _, err := NewServer(cfg); err == nil {
		t.Error("NewServer accepted an invalid platform")
	}
}

// TestBalancedMatchesSingleSocket: with even per-core load the N-core
// model must converge to the same junction temperature as the Table I
// two-node model — the paper's balanced-workload assumption is then
// exactly recovered.
func TestBalancedMatchesSingleSocket(t *testing.T) {
	cfg := sim.Default()
	server, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server.CommandFan(3000)
	var last TickResult
	for i := 0; i < 2500; i++ {
		var err error
		last, err = server.Tick(SplitEven(0.7, NCore))
		if err != nil {
			t.Fatal(err)
		}
	}
	single, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := single.Thermal().SteadyJunction(96+0.7*64, 3000)
	if math.Abs(float64(last.MaxJunc-want)) > 1.0 {
		t.Errorf("balanced 4-core junction %.2f vs single-socket %.2f", float64(last.MaxJunc), float64(want))
	}
	// All cores within a whisker of each other.
	for c, j := range last.Junctions {
		if math.Abs(float64(j-last.Junctions[0])) > 0.01 {
			t.Errorf("core %d at %v, core 0 at %v (should be symmetric)", c, j, last.Junctions[0])
		}
	}
}

// TestSkewedLoadCreatesHotspot: consolidating the load on one core must
// heat it well above its idle siblings.
func TestSkewedLoadCreatesHotspot(t *testing.T) {
	cfg := sim.Default()
	server, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server.CommandFan(3000)
	util := make([]units.Utilization, NCore)
	util[0] = 1.0
	var last TickResult
	for i := 0; i < 2000; i++ {
		var err error
		last, err = server.Tick(util)
		if err != nil {
			t.Fatal(err)
		}
	}
	if spread := float64(last.Junctions[0] - last.Junctions[2]); spread < 3 {
		t.Errorf("hot-cold spread = %.2f °C, want a real hotspot", spread)
	}
	// Lateral coupling: the ring neighbours of core 0 run warmer than
	// the opposite core.
	if last.Junctions[1] <= last.Junctions[2] {
		t.Errorf("neighbour core1 %v not above far core2 %v (lateral spreading)", last.Junctions[1], last.Junctions[2])
	}
}

func TestTickValidatesArity(t *testing.T) {
	server, err := NewServer(sim.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Tick([]units.Utilization{0.5}); err == nil {
		t.Error("wrong-arity tick accepted")
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(0, 0.2, 5); err == nil {
		t.Error("zero spread accepted")
	}
	if _, err := NewScheduler(3, 0, 5); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewScheduler(3, 1.5, 5); err == nil {
		t.Error("step > 1 accepted")
	}
	if _, err := NewScheduler(3, 0.2, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestSchedulerMigratesHotToCold(t *testing.T) {
	sc, err := NewScheduler(3, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	meas := []units.Celsius{85, 70, 72, 71}
	assign := []units.Utilization{1.0, 0.1, 0.2, 0.2}
	out := sc.DecideInto(nil, 0, meas, assign)
	if out[0] != 0.75 || out[1] != 0.35 {
		t.Errorf("migration = %v, want 0.25 moved from core0 to core1", out)
	}
	if sc.Migrations != 1 {
		t.Errorf("migrations = %d", sc.Migrations)
	}
	// The input must not be mutated.
	if assign[0] != 1.0 {
		t.Error("DecideInto mutated its input")
	}
}

func TestSchedulerRespectsIntervalAndThreshold(t *testing.T) {
	sc, _ := NewScheduler(3, 0.25, 5)
	meas := []units.Celsius{85, 70, 72, 71}
	assign := []units.Utilization{1.0, 0.1, 0.2, 0.2}
	sc.DecideInto(nil, 0, meas, assign) // fires
	out := sc.DecideInto(nil, 2, meas, assign)
	if out[0] != 1.0 {
		t.Error("migrated inside the decision interval")
	}
	// Below threshold: no migration even when due.
	flat := []units.Celsius{75, 74, 74, 73}
	out = sc.DecideInto(nil, 10, flat, assign)
	if out[0] != 1.0 || sc.Migrations != 1 {
		t.Error("migrated below the spread threshold")
	}
}

func TestSchedulerBoundsMoves(t *testing.T) {
	sc, _ := NewScheduler(3, 0.5, 5)
	// Hot core only has 0.1 to give.
	out := sc.DecideInto(nil, 0, []units.Celsius{90, 60}, []units.Utilization{0.1, 0.3})
	if out[0] != 0 || math.Abs(float64(out[1]-0.4)) > 1e-12 {
		t.Errorf("bounded move = %v", out)
	}
	// Cold core can only absorb 0.1.
	sc2, _ := NewScheduler(3, 0.5, 5)
	out = sc2.DecideInto(nil, 0, []units.Celsius{90, 60}, []units.Utilization{0.8, 0.9})
	if math.Abs(float64(out[0]-0.7)) > 1e-12 || out[1] != 1.0 {
		t.Errorf("absorb-bounded move = %v", out)
	}
	// Nothing to move: no migration counted.
	sc3, _ := NewScheduler(3, 0.5, 5)
	out = sc3.DecideInto(nil, 0, []units.Celsius{90, 60}, []units.Utilization{0, 1})
	if sc3.Migrations != 0 || out[0] != 0 {
		t.Errorf("degenerate move = %v (%d migrations)", out, sc3.Migrations)
	}
}

func TestSplits(t *testing.T) {
	even := SplitEven(0.6, 4)
	for _, u := range even {
		if u != 0.6 {
			t.Errorf("SplitEven = %v", even)
		}
	}
	skew := SplitSkewed(0.5, 4) // 2.0 core-units
	want := []units.Utilization{1, 1, 0, 0}
	for i := range want {
		if skew[i] != want[i] {
			t.Fatalf("SplitSkewed = %v, want %v", skew, want)
		}
	}
	frac := SplitSkewed(0.4, 4) // 1.6 core-units
	if frac[0] != 1 || math.Abs(float64(frac[1]-0.6)) > 1e-12 || frac[2] != 0 {
		t.Errorf("fractional skew = %v", frac)
	}
}

// TestThreeControllerCoordination is the extension's headline: with the
// fan controller, the CPU capper and the thermal-aware scheduler all
// active (the scenario the paper's introduction warns about), serialized
// performance-biased coordination slashes the deadline violations of the
// free-running configuration.
func TestThreeControllerCoordination(t *testing.T) {
	cfg := sim.Default()
	cfg.Ambient = 30
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(coordinate bool) *RunResult {
		res, err := Run(RunConfig{
			Config:     cfg,
			Duration:   3600,
			Workload:   noisy,
			Skewed:     true,
			Coordinate: coordinate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(false)
	coord := run(true)

	if free.ViolationFrac < 3*coord.ViolationFrac {
		t.Errorf("coordination did not pay: free %.2f%% vs coordinated %.2f%%",
			free.ViolationFrac*100, coord.ViolationFrac*100)
	}
	if coord.Migrations == 0 {
		t.Error("scheduler never migrated under coordination")
	}
	if free.FanEnergy >= coord.FanEnergy {
		t.Error("free-running should save fan energy by throttling (the single-socket story)")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := sim.Default()
	if _, err := Run(RunConfig{Config: cfg, Duration: 10}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(RunConfig{Config: cfg, Duration: 0, Workload: workload.Constant{U: 0.5}}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRunRecordsTraces(t *testing.T) {
	cfg := sim.Default()
	res, err := Run(RunConfig{
		Config:   cfg,
		Duration: 120,
		Workload: workload.Constant{U: 0.5},
		Record:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fan_cmd", "max_junction", "core_spread"} {
		if s := res.Traces.Get(name); s == nil || len(s.V) != 120 {
			t.Errorf("trace %q missing or wrong length", name)
		}
	}
}

// TestRunRecordingSharesOneTimeAxis: the three recorded series store
// their timestamps once, on one backing array, and still encode every
// series with its "t" array.
func TestRunRecordingSharesOneTimeAxis(t *testing.T) {
	res, err := Run(RunConfig{
		Config:   sim.Default(),
		Duration: 120,
		Workload: workload.Constant{U: 0.5},
		Record:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Traces
	if len(ts) != 3 {
		t.Fatalf("%d series, want 3", len(ts))
	}
	axis := ts[len(ts)-1].T
	for k, tk := range axis {
		if tk != float64(k) {
			t.Fatalf("timestamp %d = %v, want %d", k, tk, k)
		}
	}
	for _, s := range ts {
		if len(s.T) != 120 || len(s.V) != 120 || &s.T[0] != &axis[0] {
			t.Errorf("series %q (%d timestamps, %d values) does not share the one time axis", s.Name, len(s.T), len(s.V))
		}
	}
	out, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(out), `"t":[0,1,2,`); got != len(ts) {
		t.Errorf("encoded recording holds %d time axes, want one per series (%d)", got, len(ts))
	}
}

// TestTickResultAliasesScratch pins the documented aliasing contract:
// the slices returned by consecutive Ticks share backing storage.
func TestTickResultAliasesScratch(t *testing.T) {
	cfg := sim.Default()
	server, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	util := SplitEven(0.5, NCore)
	a, err := server.Tick(util)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Tick(util)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Junctions[0] != &b.Junctions[0] || &a.Measured[0] != &b.Measured[0] {
		t.Error("TickResult slices not reused across ticks (scratch contract broken)")
	}
}

// TestDecideIntoMatchesDecide: reusing one scratch slice across decisions
// must behave exactly like handing the scheduler a fresh slice each time.
func TestDecideIntoMatchesDecide(t *testing.T) {
	meas := []units.Celsius{85, 70, 72, 71}
	assign := []units.Utilization{1.0, 0.1, 0.2, 0.2}
	sc1, _ := NewScheduler(3, 0.25, 5)
	sc2, _ := NewScheduler(3, 0.25, 5)
	scratch := make([]units.Utilization, 0, len(assign))
	for _, tm := range []units.Seconds{0, 2, 5, 10} {
		want := sc1.DecideInto(nil, tm, meas, assign)
		scratch = sc2.DecideInto(scratch, tm, meas, assign)
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("t=%v: reused scratch %v != fresh slice %v", tm, scratch, want)
			}
		}
	}
	if sc1.Migrations != sc2.Migrations {
		t.Errorf("migration counts diverged: %d vs %d", sc1.Migrations, sc2.Migrations)
	}
}

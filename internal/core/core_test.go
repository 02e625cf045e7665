package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestCoordModeString(t *testing.T) {
	if NoCoordination.String() != "w/o-coordination" ||
		RuleBased.String() != "r-coord" ||
		EnergyAware.String() != "e-coord" {
		t.Error("mode strings wrong")
	}
	if CoordMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestNewDTMValidation(t *testing.T) {
	bad := sim.Default()
	bad.Tick = 0
	if _, err := NewDTM("x", Options{Config: bad}); err == nil {
		t.Error("invalid platform config accepted")
	}
	cfg := sim.Default()
	if _, err := NewDTM("x", Options{Config: cfg, FanInterval: 0.5}); err == nil {
		t.Error("sub-tick fan interval accepted")
	}
}

func TestDTMFanDecisionCadence(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: NoCoordination})
	if err != nil {
		t.Fatal(err)
	}
	// First tick always decides. With a hot measurement the proposal
	// moves; intermediate ticks must hold the command.
	obs := sim.Observation{T: 0, Measured: 85, Demand: 0.7, FanCmd: 2000, FanActual: 2000, Cap: 1}
	first := d.Step(obs)
	if first.Fan == 2000 {
		t.Fatal("hot first decision did not move the fan")
	}
	for tsec := 1; tsec < 30; tsec++ {
		obs2 := obs
		obs2.T = units.Seconds(tsec)
		obs2.FanCmd = first.Fan
		cmd := d.Step(obs2)
		if cmd.Fan != first.Fan {
			t.Fatalf("fan moved at t=%d between decisions", tsec)
		}
	}
	obs3 := obs
	obs3.T = 30
	obs3.FanCmd = first.Fan
	if cmd := d.Step(obs3); cmd.Fan == first.Fan {
		t.Error("no fan decision at the 30 s boundary")
	}
}

func TestDTMCapperBandRidesReference(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: RuleBased, RefTemp: 75})
	if err != nil {
		t.Fatal(err)
	}
	d.Step(sim.Observation{T: 0, Measured: 75, Demand: 0.5, FanCmd: 2000, FanActual: 2000, Cap: 1})
	// quantStep = 1, offset 0.5: release below 76.5, throttle above 79.
	if math.Abs(float64(d.capper.Low-76.5)) > 1e-9 {
		t.Errorf("cap low = %v, want 76.5", d.capper.Low)
	}
	if math.Abs(float64(d.capper.High-79)) > 1e-9 {
		t.Errorf("cap high = %v, want 79", d.capper.High)
	}
	// The capper hold band must not overlap the quantization guard's
	// hold band [ref - TQ, ref + TQ] — the deadlock invariant.
	if d.capper.Low <= d.fan.Reference()+1 {
		t.Errorf("capper release %v overlaps guard band top %v", d.capper.Low, d.fan.Reference()+1)
	}
}

func TestDTMRuleCoordProtectsCapDuringFanRamp(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: RuleBased})
	if err != nil {
		t.Fatal(err)
	}
	// Hot first tick: the fan decides upward; its standing direction is
	// Up for the next 30 s, so the capper's cut proposals are rejected.
	obs := sim.Observation{T: 0, Measured: 85, Demand: 0.9, FanCmd: 2000, FanActual: 2000, Cap: 1}
	cmd := d.Step(obs)
	if cmd.Fan <= 2000 {
		t.Fatal("fan did not ramp")
	}
	if cmd.Cap != 1 {
		t.Fatalf("cap cut while the fan owns the response: %v", cmd.Cap)
	}
	for tsec := 1; tsec < 30; tsec++ {
		o := obs
		o.T = units.Seconds(tsec)
		o.FanCmd = cmd.Fan
		c := d.Step(o)
		if c.Cap != 1 {
			t.Fatalf("cap cut at t=%d during fan ramp: %v", tsec, c.Cap)
		}
	}
}

func TestDTMUncoordinatedCutsImmediately(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: NoCoordination})
	if err != nil {
		t.Fatal(err)
	}
	obs := sim.Observation{T: 0, Measured: 85, Demand: 0.9, FanCmd: 2000, FanActual: 2000, Cap: 1}
	cmd := d.Step(obs)
	if cmd.Cap >= 1 {
		t.Errorf("uncoordinated cap = %v, want immediate cut (the conflict the paper fixes)", cmd.Cap)
	}
	if cmd.Fan <= 2000 {
		t.Errorf("uncoordinated fan = %v, want simultaneous ramp", cmd.Fan)
	}
}

func TestDTMRuleCoordEpochLimitsCuts(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: RuleBased})
	if err != nil {
		t.Fatal(err)
	}
	// Prime a fan decision that holds (measurement inside the guard
	// band) so the standing direction is Hold and cap cuts are eligible.
	cap := units.Utilization(1.0)
	cuts := 0
	for tsec := 0; tsec < 20; tsec++ {
		obs := sim.Observation{
			T: units.Seconds(tsec), Measured: 85, Demand: 0.9,
			FanCmd: 8500, FanActual: 8500, Cap: cap,
		}
		cmd := d.Step(obs)
		if cmd.Cap < cap {
			cuts++
			cap = cmd.Cap
		}
	}
	// 20 hot seconds with the 5 s epoch: at most 4-5 cuts, not 20.
	if cuts > 5 {
		t.Errorf("cuts = %d in 20 s, want epoch-limited <= 5", cuts)
	}
	if cuts == 0 {
		t.Error("no cuts at all — capper disabled?")
	}
}

func TestDTMAdaptiveRefTracksLoad(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: RuleBased, AdaptiveRef: true})
	if err != nil {
		t.Fatal(err)
	}
	// One predictor window of light load, then one of heavy load.
	for i := 0; i < predictorWindow; i++ {
		d.Step(sim.Observation{T: units.Seconds(i), Measured: 70, Demand: 0.1, FanCmd: 2000, FanActual: 2000, Cap: 1})
	}
	low := d.fan.Reference()
	for i := predictorWindow; i < 2*predictorWindow; i++ {
		d.Step(sim.Observation{T: units.Seconds(i), Measured: 70, Demand: 0.9, FanCmd: 2000, FanActual: 2000, Cap: 1})
	}
	high := d.fan.Reference()
	if low >= high {
		t.Errorf("T_ref did not rise with load: %v -> %v", low, high)
	}
	if low < refLo || high > refHi {
		t.Errorf("T_ref outside [%v, %v]: %v, %v", refLo, refHi, low, high)
	}
}

func TestDTMSingleStepBoostAndRelease(t *testing.T) {
	cfg := sim.Default()
	d, err := NewDTM("t", Options{Config: cfg, Mode: RuleBased, SingleStep: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sustained violations over a full window trigger the boost.
	var cmd sim.Command
	for i := 0; i <= boostWindow; i++ {
		cmd = d.Step(sim.Observation{
			T: units.Seconds(i), Measured: 78, Demand: 0.9, Violated: true,
			FanCmd: 2000, FanActual: 2000, Cap: 1,
		})
	}
	if !d.boosting || cmd.Fan != cfg.FanMaxSpeed {
		t.Fatalf("boost not engaged: boosted=%v fan=%v", d.boosting, cmd.Fan)
	}
	// Cool and violation-free: once a clean window has passed, release
	// drops to a finite speed well below max (the computed lowest
	// feasible speed).
	for i := boostWindow + 1; i < 4*boostWindow && d.boosting; i++ {
		cmd = d.Step(sim.Observation{
			T: units.Seconds(i), Measured: 70, Demand: 0.7, Violated: false,
			FanCmd: cfg.FanMaxSpeed, FanActual: cfg.FanMaxSpeed, Cap: 1,
		})
	}
	if d.boosting {
		t.Fatal("boost never released")
	}
	if cmd.Fan >= cfg.FanMaxSpeed || cmd.Fan <= cfg.FanMinSpeed {
		t.Errorf("release speed = %v, want interior set-point", cmd.Fan)
	}
}

// TestCapFloorFollowsMode: under a sustained emergency E-coord throttles
// below half throttle down to its own 0.1 floor, while the rule-based and
// uncoordinated schemes stop at 0.5.
func TestCapFloorFollowsMode(t *testing.T) {
	cfg := sim.Default()
	for _, tc := range []struct {
		build func(sim.Config) (*DTM, error)
		floor units.Utilization
	}{
		{NewECoordPolicy, 0.1},
		{NewUncoordinated, 0.5},
		{func(c sim.Config) (*DTM, error) { return NewRuleCoord(c, 75) }, 0.5},
	} {
		d, err := tc.build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cap, lowest := units.Utilization(1), units.Utilization(1)
		for tsec := 0; tsec < 600; tsec++ {
			cap = d.Step(sim.Observation{
				T: units.Seconds(tsec), Measured: 90, Demand: 1, Delivered: cap, Violated: cap < 1,
				FanCmd: cfg.FanMaxSpeed, FanActual: cfg.FanMaxSpeed, Cap: cap,
			}).Cap
			lowest = min(lowest, cap)
		}
		if lowest != tc.floor || cap != tc.floor {
			t.Errorf("%s: cap ends at %v (lowest %v), want the %v floor", d.Name(), cap, lowest, tc.floor)
		}
	}
}

func TestDTMResetClearsState(t *testing.T) {
	cfg := sim.Default()
	d, err := NewFullStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		d.Step(sim.Observation{T: units.Seconds(i), Measured: 85, Demand: 0.9, Violated: true, FanCmd: 3000, FanActual: 3000, Cap: 0.7})
	}
	d.Reset()
	if d.boosting {
		t.Error("boost survives reset")
	}
	if d.lastFan != 0 || d.fanEver {
		t.Error("fan cadence survives reset")
	}
	// A reset scaler starts from an empty window, so one more violated
	// tick cannot boost; a scaler that kept its window would.
	d.Step(sim.Observation{T: 0, Measured: 85, Demand: 0.9, Violated: true, FanCmd: 3000, FanActual: 3000, Cap: 0.7})
	if d.boosting {
		t.Error("scaler window survives reset")
	}
}

func TestFanOnlyPolicy(t *testing.T) {
	cfg := sim.Default()
	pid, err := control.NewPID(control.PIDConfig{
		Gains:    control.PIDGains{KP: 100},
		RefSpeed: 2000,
		RefTemp:  75,
		Limits:   control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFanOnlyPolicy("x", nil, 30, cfg); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := NewFanOnlyPolicy("x", pid, 0.5, cfg); err == nil {
		t.Error("sub-tick interval accepted")
	}
	p, err := NewFanOnlyPolicy("fan-only", pid, 30, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "fan-only" {
		t.Error("name wrong")
	}
	cmd := p.Step(sim.Observation{T: 0, Measured: 80, FanCmd: 2000, FanActual: 2000})
	if cmd.Cap != 1 {
		t.Error("fan-only policy must keep the cap open")
	}
	if cmd.Fan != 2500 {
		t.Errorf("fan = %v, want 2000 + 100*5", cmd.Fan)
	}
	// Holds between decisions.
	hold := p.Step(sim.Observation{T: 10, Measured: 80, FanCmd: cmd.Fan, FanActual: cmd.Fan})
	if hold.Fan != cmd.Fan {
		t.Error("fan moved between decisions")
	}
	p.Reset()
	again := p.Step(sim.Observation{T: 40, Measured: 80, FanCmd: 2000, FanActual: 2000})
	if again.Fan != 2500 {
		t.Errorf("after reset fan = %v, want fresh decision", again.Fan)
	}
}

func TestTuneRegionsOnPlatform(t *testing.T) {
	// Full closed-loop tuning against the simulated platform at both
	// paper operating points. The 6000 rpm region must come out with
	// substantially larger gains (the Sec. IV-B nonlinearity).
	if testing.Short() {
		t.Skip("tuning sweep in -short mode")
	}
	cfg := sim.Default()
	results, err := TuneRegions(cfg, []units.RPM{2000, 6000}, 0.7, 30, tuning.NoOvershoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	r2000, r6000 := results[0], results[1]
	if r2000.Ultimate.Ku <= 0 || r6000.Ultimate.Ku <= 0 {
		t.Fatal("non-positive ultimate gains")
	}
	ratio := float64(r6000.Ultimate.Ku) / float64(r2000.Ultimate.Ku)
	if ratio < 1.5 {
		t.Errorf("Ku(6000)/Ku(2000) = %.2f, want the low-sensitivity region clearly hotter", ratio)
	}
	// These are cmd/fantune's defaults, and the shipped schedule is what
	// it prints for them: every gain rounded to a whole number.
	literal := func(r control.Region) string {
		return fmt.Sprintf("{RefSpeed: %.0f, KP: %.0f, KI: %.0f, KD: %.0f}",
			float64(r.RefSpeed), r.Gains.KP, r.Gains.KI, r.Gains.KD)
	}
	for i, def := range DefaultRegions() {
		if got, want := literal(results[i].Region), literal(def); got != want {
			t.Errorf("region %d: tuner gives %s, shipped %s", i, got, want)
		}
	}
}

// TestColdStartNoThrottleLatch is the regression test for the cold-start
// throttling latch (ROADMAP): from a cold chassis the junction overshoots
// before the lagged, quantized measurement catches up, the capper cuts
// below demand, the all-violated window keeps the single-step boost alive,
// and the boost's standing fan-up claim made Table II discard every
// cap-release proposal — a deadlock that held ~94% violations for a full
// hour at a 25 °C inlet and 0.7 demand, which a warm start never enters.
// The fix reads a boost pinned at the actuator maximum as Hold, so the
// rule matrix's performance bias can restore the cap; the cold transient
// must now clear within minutes and stay clear.
func TestColdStartNoThrottleLatch(t *testing.T) {
	cfg := sim.Default() // 25 °C ambient
	pol, err := NewFullStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(server, sim.RunConfig{
		Duration: 3600,
		Workload: workload.Constant{U: 0.7},
		Policy:   pol,
		Record:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ViolationFrac > 0.05 {
		t.Fatalf("cold start violated %.1f%% of the hour; throttling latch is back",
			res.Metrics.ViolationFrac*100)
	}
	// The transient must actually end: after a grace window generous
	// against the sink time constant, delivery is never capped again.
	caps := res.Traces.Get("cap")
	const grace = 600
	for k, v := range caps.V {
		if tk := caps.T[k]; tk > grace && v < 0.7 {
			t.Fatalf("cap still %0.2f at t=%.0fs — release path latched", v, tk)
		}
	}
}

func TestTuneRegionsValidation(t *testing.T) {
	if _, err := TuneRegions(sim.Default(), nil, 0.7, 30, tuning.SomeOvershoot); err == nil {
		t.Error("empty speeds accepted")
	}
}

func TestDefaultRegionsSorted(t *testing.T) {
	rs := DefaultRegions()
	if len(rs) < 2 {
		t.Fatal("need at least two regions")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].RefSpeed <= rs[i-1].RefSpeed {
			t.Error("regions not ascending")
		}
		if rs[i].Gains.KP <= rs[i-1].Gains.KP {
			t.Error("gains must grow with region speed (lower plant gain)")
		}
	}
}

// TestDTMEndToEndStability is a smoke integration: the full stack keeps a
// noisy server stable and within the comfort zone for 20 simulated
// minutes.
func TestDTMEndToEndStability(t *testing.T) {
	cfg := sim.Default()
	cfg.Ambient = 30
	pol, err := NewFullStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := workload.NewNoisy(workload.PaperSquare(300), 0.04, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(server, sim.RunConfig{
		Duration:  1200,
		Workload:  noisy,
		Policy:    pol,
		WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxJunction > 86 {
		t.Errorf("max junction %.1f", float64(res.Metrics.MaxJunction))
	}
	if res.Metrics.ViolationFrac > 0.15 {
		t.Errorf("violations %.1f%%", res.Metrics.ViolationFrac*100)
	}
	if res.Metrics.HWThrottleFrac > 0.01 {
		t.Errorf("silicon protection engaged %.2f%%", res.Metrics.HWThrottleFrac*100)
	}
}

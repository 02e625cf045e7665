package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.CPUMaxPower = c.CPUIdlePower - 1 },
		func(c *Config) { c.CPUIdlePower = -1 },
		func(c *Config) { c.FanMaxPower = -1 },
		func(c *Config) { c.FanMaxSpeed = c.FanMinSpeed },
		func(c *Config) { c.FanMinSpeed = -1 },
		func(c *Config) { c.FanSlewPerSec = 0 },
		func(c *Config) { c.SinkTau = 0 },
		func(c *Config) { c.DieTau = 0 },
		func(c *Config) { c.DieRes = 0 },
		func(c *Config) { c.TLimit = c.Ambient },
		func(c *Config) { c.TProtect = c.TLimit - 1 },
		func(c *Config) { c.EmergencyCap = 1.5 },
		func(c *Config) { c.Tick = 0 },
		func(c *Config) { c.NSockets = 0 },
	}
	for i, mutate := range cases {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := NewPhysicalServer(cfg); err == nil {
			t.Errorf("case %d: NewPhysicalServer accepted invalid config", i)
		}
	}
}

func TestTableIParameters(t *testing.T) {
	// Table I: P_max 160 W, P_idle 96 W, fan 29.4 W @ 8500 rpm, 1 s fan
	// sample interval, 60 s sink time constant, 0.1 s die constant.
	cfg := Default()
	if cfg.CPUMaxPower != 160 || cfg.CPUIdlePower != 96 {
		t.Errorf("CPU power = %v/%v", cfg.CPUIdlePower, cfg.CPUMaxPower)
	}
	if cfg.FanMaxPower != 29.4 || cfg.FanMaxSpeed != 8500 {
		t.Errorf("fan = %v @ %v", cfg.FanMaxPower, cfg.FanMaxSpeed)
	}
	if cfg.SinkTau != 60 || cfg.DieTau != 0.1 {
		t.Errorf("taus = %v/%v", cfg.SinkTau, cfg.DieTau)
	}
	if cfg.Tick != 1 {
		t.Errorf("tick = %v", cfg.Tick)
	}
	if cfg.Sensor.LagSeconds != 10 || cfg.Sensor.ADCBits != 8 {
		t.Errorf("sensor = %+v", cfg.Sensor)
	}
	law := cfg.HeatSinkLaw
	if law.R0 != 0.141 || law.A != 132.5 || law.B != 0.923 {
		t.Errorf("heat sink law = %+v", law)
	}
}

func TestServerTickPhysics(t *testing.T) {
	server, err := NewPhysicalServer(Default())
	if err != nil {
		t.Fatal(err)
	}
	server.CommandFan(3000)
	server.SetCap(1)
	var last TickResult
	for i := 0; i < 2000; i++ {
		server.TickInto(0.7, &last)
	}
	// Converges to the analytic steady junction at u = 0.7, 3000 rpm.
	want := server.Thermal().SteadyJunction(last.CPUPower, 3000)
	if math.Abs(float64(last.Junction-want)) > 0.1 {
		t.Errorf("junction = %v, want %v", last.Junction, want)
	}
	if last.FanActual != 3000 {
		t.Errorf("fan actual = %v, want 3000", last.FanActual)
	}
	if last.Violated {
		t.Error("uncapped full-delivery tick reported violation")
	}
	// The measurement lags and quantizes but tracks within ~1.5 C at
	// steady state.
	if math.Abs(float64(last.Measured-last.Junction)) > 1.5 {
		t.Errorf("measured %v vs junction %v", last.Measured, last.Junction)
	}
}

// poison sets every field of r to a value TickInto never writes: NaN for
// floats, true for flags, -1 for integers. A field kind it does not know
// fails the test, so a new TickResult field gets a poison value too.
func poison(t *testing.T, r *TickResult) {
	t.Helper()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(math.NaN())
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(-1)
		default:
			t.Fatalf("TickResult.%s: no poison value for kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestTickIntoWritesEveryField: TickInto assigns its result field by
// field, so a field it forgets would keep the caller's stale value. Two
// twin servers tick the same inputs, one into a zeroed result and one
// into a poisoned one, and the results must be equal after every tick.
func TestTickIntoWritesEveryField(t *testing.T) {
	var twins [2]*PhysicalServer
	for i := range twins {
		s, err := NewPhysicalServer(Default())
		if err != nil {
			t.Fatal(err)
		}
		twins[i] = s
	}
	var zeroed, poisoned TickResult
	for k := 0; k < 400; k++ {
		for _, s := range twins {
			s.CommandFan(units.RPM(1000 + 500*(k%13)))
			s.SetCap(units.Utilization(0.3 + 0.1*float64(k%8)))
			if k == 200 { // over TProtect: the hardware throttle engages
				s.Thermal().SetState(91, 95)
			}
		}
		demand := units.Utilization(0.1 * float64(k%11))
		zeroed = TickResult{}
		poison(t, &poisoned)
		twins[0].TickInto(demand, &zeroed)
		twins[1].TickInto(demand, &poisoned)
		if !reflect.DeepEqual(zeroed, poisoned) {
			t.Fatalf("tick %d: TickInto left a field unwritten:\nzeroed   %+v\npoisoned %+v", k, zeroed, poisoned)
		}
	}
}

func TestServerFanSlew(t *testing.T) {
	cfg := Default()
	cfg.FanSlewPerSec = 500
	server, _ := NewPhysicalServer(cfg)
	server.CommandFan(8500)
	var res TickResult
	server.TickInto(0.1, &res)
	if res.FanActual != 1500 {
		t.Errorf("after 1 tick fan = %v, want 1000+500", res.FanActual)
	}
	server.TickInto(0.1, &res)
	if res.FanActual != 2000 {
		t.Errorf("after 2 ticks fan = %v, want 2000", res.FanActual)
	}
}

func TestServerCapBindsDelivery(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	server.SetCap(0.4)
	var res TickResult
	server.TickInto(0.9, &res)
	if res.Delivered != 0.4 || !res.Violated {
		t.Errorf("capped tick = %+v", res)
	}
	server.TickInto(0.3, &res)
	if res.Delivered != 0.3 || res.Violated {
		t.Errorf("uncapped tick = %+v", res)
	}
}

func TestServerProtectionClamp(t *testing.T) {
	cfg := Default()
	server, _ := NewPhysicalServer(cfg)
	// Force the die above TProtect.
	server.Thermal().SetState(91, 95)
	var res TickResult
	server.TickInto(1.0, &res)
	if !res.HWThrottled || res.Delivered != cfg.EmergencyCap {
		t.Errorf("protection did not clamp: %+v", res)
	}
}

func TestServerCommandClamping(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	server.CommandFan(99999)
	if server.FanCommand() != 8500 {
		t.Errorf("over-speed command = %v", server.FanCommand())
	}
	server.CommandFan(0)
	if server.FanCommand() != 1000 {
		t.Errorf("under-speed command = %v", server.FanCommand())
	}
	server.SetCap(7)
	if server.Cap() != 1 {
		t.Errorf("cap = %v", server.Cap())
	}
}

func TestWarmStart(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	if err := server.WarmStart(0.7, 3000); err != nil {
		t.Fatal(err)
	}
	want := server.Thermal().SteadyJunction(96+0.7*64, 3000)
	if math.Abs(float64(server.Junction()-want)) > 1e-9 {
		t.Errorf("warm junction = %v, want %v", server.Junction(), want)
	}
	// First tick's measurement reflects the warm temperature, not the
	// cold initial value, despite the 10 s sensor lag.
	var res TickResult
	server.TickInto(0.7, &res)
	if math.Abs(float64(res.Measured-want)) > 1.5 {
		t.Errorf("first measured = %v, want ~%v (primed delay line)", res.Measured, want)
	}
	if err := server.WarmStart(1.5, 3000); err == nil {
		t.Error("invalid warm utilization accepted")
	}
}

func TestRunValidation(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	wl := workload.Constant{U: 0.5}
	if _, err := Run(server, RunConfig{Duration: 0, Workload: wl, Policy: HoldPolicy{Fan: 3000}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(server, RunConfig{Duration: 10, Policy: HoldPolicy{Fan: 3000}}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(server, RunConfig{Duration: 10, Workload: wl}); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestRunMetricsAndTraces(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	res, err := Run(server, RunConfig{
		Duration: 300,
		Workload: workload.Constant{U: 0.5},
		Policy:   HoldPolicy{Fan: 4000},
		Record:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Ticks != 300 {
		t.Errorf("ticks = %d", m.Ticks)
	}
	if m.ViolationFrac != 0 {
		t.Errorf("violations = %v for an uncapped hold run", m.ViolationFrac)
	}
	if m.FanEnergy <= 0 || m.CPUEnergy <= 0 {
		t.Errorf("energies = %v, %v", m.FanEnergy, m.CPUEnergy)
	}
	// CPU energy of a 0.5-utilization 300 s run = 128 W * 300 s.
	if math.Abs(float64(m.CPUEnergy)-128*300) > 1 {
		t.Errorf("CPU energy = %v, want 38400", m.CPUEnergy)
	}
	if m.MeanDemand != 0.5 || m.MeanDelivered != 0.5 {
		t.Errorf("demand/delivered = %v/%v", m.MeanDemand, m.MeanDelivered)
	}
	for _, name := range []string{"demand", "delivered", "cap", "fan_cmd", "fan_actual", "junction", "measured", "total_power"} {
		s := res.Traces.Get(name)
		if s == nil || len(s.T) != 300 || len(s.V) != 300 {
			t.Errorf("trace %q missing or wrong length", name)
		}
	}
}

func TestRunWithoutRecordHasNoTraces(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	res, err := Run(server, RunConfig{
		Duration: 10,
		Workload: workload.Constant{U: 0.5},
		Policy:   HoldPolicy{Fan: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil {
		t.Error("traces recorded without Record")
	}
}

func TestRunDeterminism(t *testing.T) {
	noisy, err := workload.NewNoisy(workload.PaperSquare(100), 0.04, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Metrics {
		server, _ := NewPhysicalServer(Default())
		res, err := Run(server, RunConfig{Duration: 500, Workload: noisy, Policy: HoldPolicy{Fan: 3000}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestPlantImplementsTuningInterface(t *testing.T) {
	plant, err := NewPlant(Default(), 0.7, 2000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if plant.ControlPeriod() != 30 {
		t.Errorf("control period = %v", plant.ControlPeriod())
	}
	// Holding the warm-start speed keeps the measurement near the warm
	// temperature.
	first := plant.Step(2000)
	if math.Abs(float64(first)-78.5) > 2 {
		t.Errorf("warm measurement = %v, want ~78.5", first)
	}
	// More fan, cooler — visible through the non-ideal chain after a
	// few periods.
	var cooled units.Celsius
	for i := 0; i < 10; i++ {
		cooled = plant.Step(6000)
	}
	if cooled >= first {
		t.Errorf("cooling did not register: %v -> %v", first, cooled)
	}
	plant.Reset()
	if again := plant.Step(2000); math.Abs(float64(again-first)) > 1e-9 {
		t.Errorf("reset not reproducible: %v vs %v", again, first)
	}
}

func TestPlantValidation(t *testing.T) {
	if _, err := NewPlant(Default(), 1.5, 2000, 30); err == nil {
		t.Error("bad utilization accepted")
	}
	if _, err := NewPlant(Default(), 0.5, 2000, 0.5); err == nil {
		t.Error("sub-tick fan period accepted")
	}
}

func TestHoldPolicy(t *testing.T) {
	p := HoldPolicy{Fan: 4200}
	cmd := p.Step(Observation{})
	if cmd.Fan != 4200 || cmd.Cap != 1 {
		t.Errorf("hold command = %+v", cmd)
	}
	if p.Name() != "hold" {
		t.Errorf("name = %q", p.Name())
	}
	p.Reset() // must not panic
}

func TestRunRecordPowerOnly(t *testing.T) {
	server, _ := NewPhysicalServer(Default())
	res, err := Run(server, RunConfig{
		Duration:    50,
		Workload:    workload.Constant{U: 0.5},
		Policy:      HoldPolicy{Fan: 2000},
		RecordPower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == nil {
		t.Fatal("RecordPower produced no traces")
	}
	if s := res.Traces.Get("total_power"); s == nil || len(s.V) != 50 {
		t.Error("total_power series missing or wrong length")
	}
	if res.Traces.Get("junction") != nil {
		t.Error("full series recorded under power-only mode")
	}
}

// assertOneTimeAxis requires a full recording's series to share
// "total_power"'s time axis: equal timestamps on one backing array.
func assertOneTimeAxis(t *testing.T, label string, ts trace.Set, n int) {
	t.Helper()
	if len(ts) != len(seriesNames) {
		t.Fatalf("%s: %d series, want a full recording", label, len(ts))
	}
	power := ts.Get("total_power")
	if len(power.T) != n || len(power.V) != n {
		t.Fatalf("%s: total_power holds %d timestamps and %d values, want %d", label, len(power.T), len(power.V), n)
	}
	for i := range ts {
		s := &ts[i]
		if len(s.V) != n || !reflect.DeepEqual(s.T, power.T) || &s.T[0] != &power.T[0] {
			t.Errorf("%s: series %q does not share total_power's time axis", label, s.Name)
		}
	}
}

// TestRecordingSharesOneTimeAxis: a full recording stores its timestamps
// once, in "total_power", from sim.Run and from a lockstep lane alike, and
// still encodes every series with its "t" array.
func TestRecordingSharesOneTimeAxis(t *testing.T) {
	rc := RunConfig{Duration: 120, Workload: workload.Constant{U: 0.6}, Policy: HoldPolicy{Fan: 3000}, Record: true}
	server, err := NewPhysicalServer(Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(server, rc)
	if err != nil {
		t.Fatal(err)
	}
	assertOneTimeAxis(t, "Run", res.Traces, 120)

	jobs := lockstepJobs(t, 3)
	for i := range jobs {
		jobs[i].Config.Record = true
	}
	lane, err := runBatch(jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range lane {
		assertOneTimeAxis(t, jobs[i].Name, r.Traces, 600)
	}

	out, err := json.Marshal(res.Traces)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(out), `"t":[0,1,2,`); got != len(seriesNames) {
		t.Errorf("encoded recording holds %d time axes, want one per series (%d)", got, len(seriesNames))
	}
}

// TestZeroTickRecordingEncodesEmptyTime: a run shorter than one tick
// records nothing, and every series still encodes "t":[] — from Run and
// from a lockstep lane.
func TestZeroTickRecordingEncodesEmptyTime(t *testing.T) {
	rc := RunConfig{Duration: 0.5, Workload: workload.Constant{U: 0.6}, Policy: HoldPolicy{Fan: 3000}, Record: true}
	server, err := NewPhysicalServer(Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(server, rc)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := runBatch([]Job{{Name: "short", Server: Factory(Default()), Config: rc}}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for label, ts := range map[string]trace.Set{"Run": res.Traces, "lockstep": lane[0].Traces} {
		out, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(out), `"t":[],"v":[]`); got != len(seriesNames) {
			t.Errorf("%s: %d of %d series encode empty, in %s", label, got, len(seriesNames), out)
		}
	}
}

package experiments

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// These tests pin the scenario refactor to the pre-refactor behavior:
// each legacy entry point is re-implemented here exactly as it built its
// jobs before becoming a scenario adapter, each job is run alone through
// sim.Run, and the adapter's output must match bit for bit. A drift in the
// vocabulary's factories, the spec construction, or the batch engine fails
// loudly.

// runAlone runs each job alone through sim.Run on a fresh server.
func runAlone(t *testing.T, jobs []sim.Job) []*sim.Result {
	t.Helper()
	results := make([]*sim.Result, len(jobs))
	for i, j := range jobs {
		server, err := j.Server()
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = sim.Run(server, j.Config); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// legacyTable3 is the pre-refactor Table3: jobs built by hand from
// core.TableIIISolutions.
func legacyTable3(t *testing.T, tc Table3Config) []Table3Row {
	t.Helper()
	cfg := DefaultConfig()
	if tc.Ambient != 0 {
		cfg.Ambient = tc.Ambient
	}
	gen, err := buildWorkload(tc, cfg.Tick)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := core.TableIIISolutions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]sim.Job, len(policies))
	names := make([]string, len(policies))
	for i, pol := range policies {
		names[i] = pol.Name()
		jobs[i] = sim.Job{
			Name:   pol.Name(),
			Server: sim.Factory(cfg),
			Config: sim.RunConfig{
				Duration:  tc.Duration,
				Workload:  gen,
				Policy:    pol,
				WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
			},
		}
	}
	results := runAlone(t, jobs)
	rows := make([]Table3Row, 0, len(results))
	var baseline units.Joule
	for i, res := range results {
		m := res.Metrics
		if i == 0 {
			baseline = m.FanEnergy
		}
		norm := 0.0
		if baseline > 0 {
			norm = float64(m.FanEnergy) / float64(baseline)
		}
		rows = append(rows, Table3Row{
			Name:          names[i],
			ViolationPct:  m.ViolationFrac * 100,
			NormFanEnergy: norm,
			FanEnergy:     m.FanEnergy,
			HWThrottlePct: m.HWThrottleFrac * 100,
			MaxJunction:   m.MaxJunction,
			MeanFanSpeed:  m.MeanFanSpeed,
		})
	}
	return rows
}

func TestTable3MatchesLegacy(t *testing.T) {
	tc := DefaultTable3()
	tc.Duration = 1200
	want := legacyTable3(t, tc)
	got, err := Table3(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want))
	}
	for i := range want {
		if got.Rows[i] != want[i] {
			t.Errorf("row %d:\nscenario %+v\nlegacy   %+v", i, got.Rows[i], want[i])
		}
	}
}

// legacyFig3 is the pre-refactor Fig3 engine invocation: per-variant fan
// controllers built by hand.
func legacyFig3(t *testing.T, fc Fig3Config) []*sim.Result {
	t.Helper()
	cfg := DefaultConfig()
	regions := core.DefaultRegions()
	lim := control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed}

	build := func(region int, adaptive bool, name string) sim.Policy {
		var inner control.FanController
		if adaptive {
			a, err := control.NewAdaptivePID(regions, fc.RefTemp, lim)
			if err != nil {
				t.Fatal(err)
			}
			a.SetSlewFrac(0.6, 400)
			inner = a
		} else {
			p, err := control.NewPID(control.PIDConfig{
				Gains: regions[region].Gains, RefSpeed: regions[region].RefSpeed,
				RefTemp: fc.RefTemp, Limits: lim, SlewFrac: 0.6, SlewFloor: 400,
			})
			if err != nil {
				t.Fatal(err)
			}
			inner = p
		}
		fan, err := control.NewQuantGuard(inner, 1)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := core.NewFanOnlyPolicy(name, fan, core.DefaultFanInterval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}

	jobs := make([]sim.Job, 3)
	for i, spec := range []struct {
		region   int
		adaptive bool
		name     string
	}{{0, false, string(Fixed2000)}, {1, false, string(Fixed6000)}, {0, true, string(Adaptive)}} {
		jobs[i] = sim.Job{
			Name:   spec.name,
			Server: sim.Factory(cfg),
			Config: sim.RunConfig{
				Duration:  units.Seconds(float64(fc.Period) * float64(fc.Cycles)),
				Workload:  workload.PaperSquare(fc.Period),
				Policy:    build(spec.region, spec.adaptive, spec.name),
				Record:    true,
				WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
			},
		}
	}
	return runAlone(t, jobs)
}

func TestFig3MatchesLegacyBatch(t *testing.T) {
	fc := DefaultFig3()
	fc.Cycles = 1
	fc.Period = 600
	want := legacyFig3(t, fc)
	got, err := scenario.Run(Fig3Spec(fc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Units) != len(want) {
		t.Fatalf("units = %d, want %d", len(got.Units), len(want))
	}
	for i, res := range want {
		u := &got.Units[i]
		if m := scenario.SimMetrics(u); m != res.Metrics {
			t.Errorf("unit %d metrics:\nscenario %+v\nlegacy   %+v", i, m, res.Metrics)
		}
		for _, legacySeries := range res.Traces {
			name := legacySeries.Name
			s := u.Series.Get(name)
			if s == nil {
				t.Fatalf("unit %d missing series %q", i, name)
			}
			if len(s.V) != len(legacySeries.V) {
				t.Fatalf("unit %d series %q length %d != %d", i, name, len(s.V), len(legacySeries.V))
			}
			for k := range s.V {
				if s.V[k] != legacySeries.V[k] || s.T[k] != legacySeries.T[k] {
					t.Fatalf("unit %d series %q sample %d differs", i, name, k)
				}
			}
		}
	}
}

// legacyFaults is the pre-refactor Faults: the fault pipeline assembled
// by hand inside the job's ServerFactory.
func legacyFaults(t *testing.T, fc FaultConfig) *FaultResult {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Ambient = 30

	factory := func(inject bool) sim.ServerFactory {
		return func() (*sim.PhysicalServer, error) {
			server, err := sim.NewPhysicalServer(cfg)
			if err != nil {
				return nil, err
			}
			if !inject {
				return server, nil
			}
			stuck, err := sensor.NewStuckAt(fc.StuckAt, fc.StuckAt+fc.StuckLen)
			if err != nil {
				return nil, err
			}
			drop, err := sensor.NewDropout(fc.DropoutRate, fc.Seed)
			if err != nil {
				return nil, err
			}
			base, err := sensor.New(cfg.Sensor)
			if err != nil {
				return nil, err
			}
			if err := server.ReplaceSensor(sensor.NewPipeline(base, drop, stuck)); err != nil {
				return nil, err
			}
			return server, nil
		}
	}

	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, fc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]sim.Job, 2)
	for i, inject := range []bool{false, true} {
		pol, err := core.NewFullStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = sim.Job{
			Server: factory(inject),
			Config: sim.RunConfig{
				Duration:  fc.Duration,
				Workload:  noisy,
				Policy:    pol,
				WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1500},
			},
		}
	}
	results := runAlone(t, jobs)
	return &FaultResult{Clean: results[0].Metrics, Faulted: results[1].Metrics}
}

func TestFaultsMatchesLegacy(t *testing.T) {
	fc := DefaultFaults()
	fc.Duration = 900
	fc.StuckAt = 400
	want := legacyFaults(t, fc)
	got, err := Faults(fc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clean != want.Clean {
		t.Errorf("clean metrics:\nscenario %+v\nlegacy   %+v", got.Clean, want.Clean)
	}
	if got.Faulted != want.Faulted {
		t.Errorf("faulted metrics:\nscenario %+v\nlegacy   %+v", got.Faulted, want.Faulted)
	}
}

// TestFig5MatchesLegacy pins the single-run adapter to a direct sim.Run.
func TestFig5MatchesLegacy(t *testing.T) {
	fc := DefaultFig5()
	fc.Duration = 900
	cfg := DefaultConfig()
	noisy, err := workload.NewNoisy(workload.PaperSquare(fc.Period), fc.NoiseSigma, cfg.Tick, fc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewRuleCoord(cfg, 75)
	if err != nil {
		t.Fatal(err)
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(server, sim.RunConfig{
		Duration:  fc.Duration,
		Workload:  noisy,
		Policy:    pol,
		Record:    true,
		WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fig5(fc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics != res.Metrics {
		t.Errorf("metrics:\nscenario %+v\nlegacy   %+v", got.Metrics, res.Metrics)
	}
	if math.IsNaN(got.Oscillation.Amplitude) {
		t.Error("NaN oscillation amplitude")
	}
}

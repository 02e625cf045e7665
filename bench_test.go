// Benchmarks regenerating every figure and table of the paper's
// evaluation (one per experiment), plus ablation sweeps over the
// telemetry lag, the quantization guard, the region count, the fan
// control period and the bus contention. Each benchmark reports the
// experiment's headline quantities via b.ReportMetric so `go test -bench`
// doubles as a results harness: the *shape* of these metrics against the
// paper is the reproduction target.
package main

import (
	"fmt"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/multicore"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkFig1TelemetryLag regenerates Fig. 1 and reports the measured
// telemetry lag in seconds.
func BenchmarkFig1TelemetryLag(b *testing.B) {
	var lag float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(experiments.DefaultFig1())
		if err != nil {
			b.Fatal(err)
		}
		lag = float64(res.MeasuredLag)
	}
	b.ReportMetric(lag, "lag-s")
}

// BenchmarkFig3AdaptivePID regenerates Fig. 3 and reports the adaptive
// controller's settling time and the 6000 rpm gains' low-phase
// oscillation amplitude.
func BenchmarkFig3AdaptivePID(b *testing.B) {
	var settle, amp6000 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.DefaultFig3())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Runs {
			switch r.Variant {
			case experiments.Adaptive:
				settle = float64(r.SettleAfterStep)
			case experiments.Fixed6000:
				amp6000 = r.LowPhaseAmp
			}
		}
	}
	b.ReportMetric(settle, "adaptive-settle-s")
	b.ReportMetric(amp6000, "fixed6000-amp-rpm")
}

// BenchmarkFig4DeadzoneOscillation regenerates Fig. 4 and reports the
// deadzone limit cycle's amplitude and period.
func BenchmarkFig4DeadzoneOscillation(b *testing.B) {
	var amp, period float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.DefaultFig4())
		if err != nil {
			b.Fatal(err)
		}
		amp, period = res.AmplitudeRPM, res.PeriodSeconds
	}
	b.ReportMetric(amp, "amp-rpm")
	b.ReportMetric(period, "period-s")
}

// BenchmarkFig5DynamicStability regenerates Fig. 5 and reports the fan
// oscillation amplitude and peak junction temperature under noise.
func BenchmarkFig5DynamicStability(b *testing.B) {
	var amp, tmax float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.DefaultFig5())
		if err != nil {
			b.Fatal(err)
		}
		amp, tmax = res.Oscillation.Amplitude, float64(res.MaxJunction)
	}
	b.ReportMetric(amp, "fan-amp-rpm")
	b.ReportMetric(tmax, "Tmax-C")
}

// BenchmarkTable3 regenerates Table III, one sub-benchmark per solution,
// reporting the deadline-violation percentage and normalized fan energy.
func BenchmarkTable3(b *testing.B) {
	names := []string{"Uncoordinated", "ECoord", "RCoord75", "RCoordATref", "RCoordATrefSSfan"}
	for row, name := range names {
		b.Run(name, func(b *testing.B) {
			var viol, energy float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Table3(experiments.DefaultTable3())
				if err != nil {
					b.Fatal(err)
				}
				viol = res.Rows[row].ViolationPct
				energy = res.Rows[row].NormFanEnergy
			}
			b.ReportMetric(viol, "violation-%")
			b.ReportMetric(energy, "norm-energy")
		})
	}
}

// BenchmarkZNTuning measures the full closed-loop Ziegler-Nichols
// procedure against the simulated platform and reports the found ultimate
// gains at the two paper regions.
func BenchmarkZNTuning(b *testing.B) {
	cfg := sim.Default()
	var ku2000, ku6000 float64
	for i := 0; i < b.N; i++ {
		results, err := core.TuneRegions(cfg, []units.RPM{2000, 6000}, 0.7, 30, tuning.NoOvershoot)
		if err != nil {
			b.Fatal(err)
		}
		ku2000 = float64(results[0].Ultimate.Ku)
		ku6000 = float64(results[1].Ultimate.Ku)
	}
	b.ReportMetric(ku2000, "Ku2000")
	b.ReportMetric(ku6000, "Ku6000")
}

// runStack is the shared harness for the ablation benches: the full DTM on
// the noisy square wave under a modified platform, reporting violations.
func runStack(b *testing.B, cfg sim.Config, build func(sim.Config) (*core.DTM, error)) (violPct, fanE float64) {
	b.Helper()
	pol, err := build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, 9)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(server, sim.RunConfig{
		Duration:  3600,
		Workload:  noisy,
		Policy:    pol,
		WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1500},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Metrics.ViolationFrac * 100, float64(res.Metrics.FanEnergy)
}

// BenchmarkAblationLagSweep sweeps the telemetry lag: when does the
// shipped controller's stability margin erode?
func BenchmarkAblationLagSweep(b *testing.B) {
	for _, lag := range []float64{0, 5, 10, 20} {
		b.Run(unitName("lag", lag, "s"), func(b *testing.B) {
			cfg := sim.Default()
			cfg.Ambient = 30
			cfg.Sensor.LagSeconds = units.Seconds(lag)
			var viol float64
			for i := 0; i < b.N; i++ {
				viol, _ = runStack(b, cfg, core.NewFullStack)
			}
			b.ReportMetric(viol, "violation-%")
		})
	}
}

// BenchmarkAblationQuantGuard compares the Eq. 10 guard on and off across
// quantization step sizes.
func BenchmarkAblationQuantGuard(b *testing.B) {
	for _, bits := range []int{6, 8, 10} {
		for _, guard := range []bool{true, false} {
			name := unitName("bits", float64(bits), "")
			if guard {
				name += "/guard-on"
			} else {
				name += "/guard-off"
			}
			b.Run(name, func(b *testing.B) {
				cfg := sim.Default()
				cfg.Ambient = 30
				cfg.Sensor.ADCBits = bits
				g := guard
				build := func(c sim.Config) (*core.DTM, error) {
					return core.NewDTM("ablation", core.Options{
						Config: c, Mode: core.RuleBased, QuantGuard: &g,
					})
				}
				var fanE float64
				for i := 0; i < b.N; i++ {
					_, fanE = runStack(b, cfg, build)
				}
				b.ReportMetric(fanE/1000, "fanE-kJ")
			})
		}
	}
}

// BenchmarkAblationRegionCount sweeps the number of gain-scheduling
// regions (Sec. IV-B says two suffice for 5% linearization error).
func BenchmarkAblationRegionCount(b *testing.B) {
	speedSets := map[string][]units.RPM{
		"1-region":  {2000},
		"2-regions": {2000, 6000},
		"3-regions": {2000, 4000, 6000},
	}
	for name, speeds := range speedSets {
		b.Run(name, func(b *testing.B) {
			cfg := sim.Default()
			cfg.Ambient = 30
			results, err := core.TuneRegions(cfg, speeds, 0.7, 30, tuning.NoOvershoot)
			if err != nil {
				b.Fatal(err)
			}
			regions := make([]control.Region, 0, len(results))
			for _, r := range results {
				regions = append(regions, r.Region)
			}
			build := func(c sim.Config) (*core.DTM, error) {
				return core.NewDTM("ablation", core.Options{
					Config: c, Mode: core.RuleBased, Regions: regions,
				})
			}
			var viol float64
			for i := 0; i < b.N; i++ {
				viol, _ = runStack(b, cfg, build)
			}
			b.ReportMetric(viol, "violation-%")
		})
	}
}

// BenchmarkAblationFanPeriod sweeps Δt_fan^control.
func BenchmarkAblationFanPeriod(b *testing.B) {
	for _, period := range []float64{10, 30, 60} {
		b.Run(unitName("period", period, "s"), func(b *testing.B) {
			cfg := sim.Default()
			cfg.Ambient = 30
			build := func(c sim.Config) (*core.DTM, error) {
				return core.NewDTM("ablation", core.Options{
					Config: c, Mode: core.RuleBased, FanInterval: units.Seconds(period),
				})
			}
			var viol float64
			for i := 0; i < b.N; i++ {
				viol, _ = runStack(b, cfg, build)
			}
			b.ReportMetric(viol, "violation-%")
		})
	}
}

// BenchmarkAblationBusContention sweeps the sensor count sharing the I2C
// bus — the paper's "newer generations have more sensors" concern.
func BenchmarkAblationBusContention(b *testing.B) {
	for _, sensors := range []int{8, 16, 32, 64} {
		b.Run(unitName("sensors", float64(sensors), ""), func(b *testing.B) {
			bus := experiments.DefaultFig1().Bus
			bus.NSensors = sensors
			cfg := sim.Default()
			cfg.Ambient = 30
			cfg.Sensor.LagSeconds = bus.Lag()
			var viol float64
			for i := 0; i < b.N; i++ {
				viol, _ = runStack(b, cfg, core.NewFullStack)
			}
			b.ReportMetric(float64(bus.Lag()), "lag-s")
			b.ReportMetric(viol, "violation-%")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// seconds per wall second for the full stack.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := sim.Default()
	pol, err := core.NewFullStack(cfg)
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server, err := sim.NewPhysicalServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(server, sim.RunConfig{
			Duration: 3600,
			Workload: noisy,
			Policy:   pol,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(3600*float64(b.N)/sec, "sim-s/s")
	}
}

func unitName(k string, v float64, unit string) string {
	return fmt.Sprintf("%s=%g%s", k, v, unit)
}

// BenchmarkThreeControllers runs the multi-core extension scenario (the
// paper's introduction: fan + capper + thermal-aware scheduler on one
// platform) in both arbitration modes and reports the violation gap.
func BenchmarkThreeControllers(b *testing.B) {
	cfg := multicore.DefaultConfig()
	cfg.Base.Ambient = 30
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Base.Tick, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		coord bool
	}{{"FreeRunning", false}, {"Coordinated", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var viol float64
			for i := 0; i < b.N; i++ {
				res, err := multicore.Run(multicore.RunConfig{
					Config:     cfg,
					Duration:   3600,
					Workload:   noisy,
					Skewed:     true,
					Coordinate: mode.coord,
				})
				if err != nil {
					b.Fatal(err)
				}
				viol = res.ViolationFrac * 100
			}
			b.ReportMetric(viol, "violation-%")
		})
	}
}

// Ablation sweeps over the telemetry lag, the quantization guard, the
// region count, the fan control period and the bus contention: the full
// stack on the noisy square wave under a modified platform, each
// reporting its violations or fan energy via b.ReportMetric. The paper's
// figures and tables themselves are spec files under specs/, run by
// cmd/experiments and `scenariod run`, with each file's key and printed
// outcome pinned by cmd/scenariod's TestRunSpecFiles and
// TestRunMatchesSubmit.
package main

import (
	"fmt"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/units"
	"repro/internal/workload"
)

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
				build := func(c sim.Config) (*core.DTM, error) {
					return core.NewDTM("ablation", core.Options{
						Config: c, Mode: core.RuleBased, NoQuantGuard: !guard,
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
			bus := sensor.DefaultBus()
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

func unitName(k string, v float64, unit string) string {
	return fmt.Sprintf("%s=%g%s", k, v, unit)
}

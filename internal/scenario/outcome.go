package scenario

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Outcome is the one normalized result shape every scenario kind returns:
// per-unit metric maps (a unit is a batch job, a rack node, or the whole
// run for single-unit kinds) plus run-level aggregates. Everything is
// float64 and string — Outcomes marshal to JSON and back without loss
// (Go's float64 JSON encoding round-trips exactly), which is what lets
// the Store serve cached results bit-identical to a fresh run.
type Outcome struct {
	// Kind echoes the spec's kind.
	Kind string `json:"kind"`
	// Units are the per-job / per-node results, in spec order.
	Units []Unit `json:"units"`
	// Aggregate holds run-level metrics (rack totals, relaxation pass
	// counts); empty for kinds without a cross-unit view.
	Aggregate map[string]float64 `json:"aggregate,omitempty"`
}

// Unit is one job's or node's normalized result.
type Unit struct {
	// Name is the job/node name from the spec.
	Name string `json:"name"`
	// Labels carry non-numeric annotations (the built policy's name, a
	// fleet node's aisle).
	Labels map[string]string `json:"labels,omitempty"`
	// Metrics is the normalized metric map (see the sim metric keys in
	// simMetricsMap).
	Metrics map[string]float64 `json:"metrics"`
	// Series are the recorded time series, the engine's recording as-is
	// (in its recording order).
	Series trace.Set `json:"series,omitempty"`
}

// Metric returns a unit metric, or def when absent.
func (u *Unit) Metric(key string, def float64) float64 {
	if v, ok := u.Metrics[key]; ok {
		return v
	}
	return def
}

// Unit returns the named unit, or nil.
func (o *Outcome) Unit(name string) *Unit {
	for i := range o.Units {
		if o.Units[i].Name == name {
			return &o.Units[i]
		}
	}
	return nil
}

// The normalized metric keys for a sim.Metrics block.
const (
	MetricTicks          = "ticks"
	MetricViolationFrac  = "violation_frac"
	MetricHWThrottleFrac = "hw_throttle_frac"
	MetricFanEnergyJ     = "fan_energy_j"
	MetricCPUEnergyJ     = "cpu_energy_j"
	MetricMaxJunctionC   = "max_junction_c"
	MetricMeanJunctionC  = "mean_junction_c"
	MetricTimeAboveS     = "time_above_limit_s"
	MetricMeanFanRPM     = "mean_fan_rpm"
	MetricMeanDelivered  = "mean_delivered"
	MetricMeanDemand     = "mean_demand"
)

// simMetricsMap normalizes a sim.Metrics block into the metric map.
func simMetricsMap(m sim.Metrics) map[string]float64 {
	return map[string]float64{
		MetricTicks:          float64(m.Ticks),
		MetricViolationFrac:  m.ViolationFrac,
		MetricHWThrottleFrac: m.HWThrottleFrac,
		MetricFanEnergyJ:     float64(m.FanEnergy),
		MetricCPUEnergyJ:     float64(m.CPUEnergy),
		MetricMaxJunctionC:   float64(m.MaxJunction),
		MetricMeanJunctionC:  float64(m.MeanJunction),
		MetricTimeAboveS:     float64(m.TimeAboveLimit),
		MetricMeanFanRPM:     float64(m.MeanFanSpeed),
		MetricMeanDelivered:  float64(m.MeanDelivered),
		MetricMeanDemand:     float64(m.MeanDemand),
	}
}

// SimMetrics reconstructs the sim.Metrics block from a unit's metric map —
// the inverse of the normalization Run applies, bit-exact for values a
// sim run can produce.
func SimMetrics(u *Unit) sim.Metrics {
	return sim.Metrics{
		Ticks:          int(u.Metric(MetricTicks, 0)),
		ViolationFrac:  u.Metric(MetricViolationFrac, 0),
		HWThrottleFrac: u.Metric(MetricHWThrottleFrac, 0),
		FanEnergy:      units.Joule(u.Metric(MetricFanEnergyJ, 0)),
		CPUEnergy:      units.Joule(u.Metric(MetricCPUEnergyJ, 0)),
		MaxJunction:    units.Celsius(u.Metric(MetricMaxJunctionC, 0)),
		MeanJunction:   units.Celsius(u.Metric(MetricMeanJunctionC, 0)),
		TimeAboveLimit: units.Seconds(u.Metric(MetricTimeAboveS, 0)),
		MeanFanSpeed:   units.RPM(u.Metric(MetricMeanFanRPM, 0)),
		MeanDelivered:  units.Utilization(u.Metric(MetricMeanDelivered, 0)),
		MeanDemand:     units.Utilization(u.Metric(MetricMeanDemand, 0)),
	}
}

package sim

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// RunConfig describes one simulation run.
type RunConfig struct {
	Duration units.Seconds      // simulated horizon
	Workload workload.Generator // demanded utilization
	Policy   Policy             // DTM under test
	// Record enables full time-series capture (memory-heavy for long
	// runs; metrics are always computed).
	Record bool
	// RecordPower captures only the "total_power" series — what the
	// fleet layer's rack-power aggregation consumes — at an eighth of
	// Record's memory. Implied by Record.
	RecordPower bool
	// WarmStart, if non-nil, initializes the platform at thermal steady
	// state for the given operating point instead of a cold chassis.
	WarmStart *WarmPoint
}

// WarmPoint is a steady-state initial operating condition. The json tags
// mirror the field names: warm starts are hashed into scenario store keys
// (repolint: hashedfield).
type WarmPoint struct {
	Util units.Utilization `json:"Util"`
	Fan  units.RPM         `json:"Fan"`
}

// Metrics are the paper's evaluation quantities for one run.
type Metrics struct {
	Ticks          int
	ViolationFrac  float64     // Table III column 2 (fraction, not %)
	HWThrottleFrac float64     // fraction of ticks the 80 °C clamp engaged
	FanEnergy      units.Joule // Table III column 3 numerator
	CPUEnergy      units.Joule
	MaxJunction    units.Celsius
	MeanJunction   units.Celsius
	TimeAboveLimit units.Seconds
	MeanFanSpeed   units.RPM
	MeanDelivered  units.Utilization
	MeanDemand     units.Utilization
}

// Result bundles the metrics and (optionally) the recorded traces of a run.
type Result struct {
	Metrics Metrics
	// Traces holds the recorded series in seriesNames order: all of them
	// under RunConfig.Record, only "total_power" under
	// RunConfig.RecordPower, nil otherwise.
	Traces trace.Set
}

// seriesNames are the recorded series in recording order. "total_power"
// comes last, so a power-only recording is a full one's last element.
var seriesNames = [...]string{"demand", "delivered", "cap", "fan_cmd", "fan_actual", "junction", "measured", "total_power"}

// powerSeries indexes "total_power" in seriesNames.
const powerSeries = len(seriesNames) - 1

// newRecording returns the recording around the "total_power" series
// power: power alone, or, if full, every series of seriesNames, the
// others with room for n values. A full recording keeps one time axis,
// power's: record appends each timestamp to it once, and the run ends by
// pointing the other series' T at it (shareTime).
func newRecording(power trace.Series, full bool, n int) trace.Set {
	if !full {
		return trace.Set{power}
	}
	ts := make(trace.Set, len(seriesNames))
	for i, name := range seriesNames[:powerSeries] {
		ts[i] = trace.Series{Name: name, V: make([]float64, 0, n)}
	}
	ts[powerSeries] = power
	return ts
}

// record appends one tick's result to ts, which holds either every series
// of seriesNames or only "total_power". Only "total_power" takes the
// timestamp, so the monotone check runs once per tick.
func record(ts trace.Set, r *TickResult) {
	if len(ts) == len(seriesNames) {
		ts[0].V = append(ts[0].V, float64(r.Demand))
		ts[1].V = append(ts[1].V, float64(r.Delivered))
		ts[2].V = append(ts[2].V, float64(r.Cap))
		ts[3].V = append(ts[3].V, float64(r.FanCmd))
		ts[4].V = append(ts[4].V, float64(r.FanActual))
		ts[5].V = append(ts[5].V, float64(r.Junction))
		ts[6].V = append(ts[6].V, float64(r.Measured))
	}
	ts[len(ts)-1].MustAppend(float64(r.T), float64(r.TotalPower))
}

// shareTime gives every series of a finished recording the time axis of
// its last series, "total_power".
func shareTime(ts trace.Set) {
	for i := range ts {
		ts[i].T = ts[len(ts)-1].T
	}
}

// Run executes one simulation.
func Run(server *PhysicalServer, rc RunConfig) (*Result, error) {
	if rc.Duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration %v", rc.Duration)
	}
	if rc.Workload == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	if rc.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	server.Reset()
	rc.Policy.Reset()
	if rc.WarmStart != nil {
		if err := server.WarmStart(rc.WarmStart.Util, rc.WarmStart.Fan); err != nil {
			return nil, err
		}
	}

	nTicks := int(float64(rc.Duration) / float64(server.cfg.Tick))
	var ts trace.Set
	if rc.Record || rc.RecordPower {
		ts = newRecording(trace.NewSeries(seriesNames[powerSeries], nTicks), rc.Record, nTicks)
	}

	var m Metrics
	violations, hwThrottles := 0, 0
	var sumJunction, sumFan, sumDelivered, sumDemand float64
	prev := TickResult{Cap: 1, FanCmd: server.FanCommand(), FanActual: server.FanActual(), Measured: units.Celsius(server.cfg.Sensor.InitialValue)}
	if rc.WarmStart != nil {
		prev.Measured = server.Junction()
		prev.Cap = server.Cap()
	}
	for k := 0; k < nTicks; k++ {
		t := units.Seconds(float64(k) * float64(server.cfg.Tick))
		demand := rc.Workload.At(t)
		cmd := rc.Policy.Step(Observation{
			T:         t,
			Measured:  prev.Measured,
			Demand:    demand,
			Delivered: prev.Delivered,
			Violated:  prev.Violated,
			FanCmd:    server.FanCommand(),
			FanActual: server.FanActual(),
			Cap:       server.Cap(),
		})
		server.CommandFan(cmd.Fan)
		server.SetCap(cmd.Cap)
		server.TickInto(demand, &prev)
		res := &prev

		if res.Violated {
			violations++
		}
		if res.HWThrottled {
			hwThrottles++
		}
		m.FanEnergy += res.FanEnergyJ
		m.CPUEnergy += res.CPUEnergyJ
		if res.Junction > m.MaxJunction {
			m.MaxJunction = res.Junction
		}
		if res.Junction > server.cfg.TLimit {
			m.TimeAboveLimit += server.cfg.Tick
		}
		sumJunction += float64(res.Junction)
		sumFan += float64(res.FanActual)
		sumDelivered += float64(res.Delivered)
		sumDemand += float64(res.Demand)

		if ts != nil {
			record(ts, res)
		}
	}

	shareTime(ts)
	m.Ticks = nTicks
	if nTicks > 0 {
		m.ViolationFrac = float64(violations) / float64(nTicks)
		m.HWThrottleFrac = float64(hwThrottles) / float64(nTicks)
		m.MeanJunction = units.Celsius(sumJunction / float64(nTicks))
		m.MeanFanSpeed = units.RPM(sumFan / float64(nTicks))
		m.MeanDelivered = units.Utilization(sumDelivered / float64(nTicks))
		m.MeanDemand = units.Utilization(sumDemand / float64(nTicks))
	}
	return &Result{Metrics: m, Traces: ts}, nil
}

package sim

import (
	"errors"
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
// pointing the other series' T at it (trace.Set.ShareTime).
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

// check reports the first defect that keeps rc from running.
func (rc RunConfig) check() error {
	if rc.Duration <= 0 {
		return fmt.Errorf("non-positive duration %v", rc.Duration)
	}
	if rc.Workload == nil {
		return errors.New("nil workload")
	}
	if rc.Policy == nil {
		return errors.New("nil policy")
	}
	return nil
}

// Run executes one simulation: one lane on server, fed by sampling the
// workload on every tick.
func Run(server *PhysicalServer, rc RunConfig) (*Result, error) {
	if err := rc.check(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ln := newLane("", server, rc)
	if err := ln.reset(); err != nil {
		return nil, err
	}
	for k := 0; k < ln.nTicks; k++ {
		ln.step(k, rc.Workload.At(units.Seconds(float64(k)*float64(ln.tick))))
	}
	ln.finish()
	return &ln.result, nil
}

// lane is the closed loop of one server: Run steps one, and a Lockstep
// steps one per job.
type lane struct {
	name   string
	server *PhysicalServer
	policy Policy
	warm   *WarmPoint
	// tick and nTicks are the lane's clock: its server's engine tick and
	// the number of ticks in its job's duration.
	tick   units.Seconds
	nTicks int
	// demand is a Lockstep lane's precompiled schedule, one entry per
	// tick; Run samples its workload instead.
	demand []units.Utilization
	// scale multiplies a Lockstep lane's schedule at step time (results
	// clamped to [0, 1]); 1 leaves the schedule untouched bit for bit. The
	// fleet coordinator migrates divisible workload share between rack
	// nodes by adjusting lane scales between relaxations.
	scale float64

	record      bool
	recordPower bool

	// Reused output state: the result, its metrics, and the recording
	// (see recording). Returned results alias these and stay valid until
	// the lane's next run.
	result   Result
	prev     TickResult
	rec      trace.Set
	violated int
	hwThrot  int
	sumJunc  float64
	sumFan   float64
	sumDeliv float64
	sumDem   float64
}

// newLane builds the lane that runs rc on server; rc must pass check.
func newLane(name string, server *PhysicalServer, rc RunConfig) lane {
	tick := server.cfg.Tick
	return lane{
		name:        name,
		server:      server,
		policy:      rc.Policy,
		warm:        rc.WarmStart,
		tick:        tick,
		nTicks:      int(float64(rc.Duration) / float64(tick)),
		scale:       1,
		record:      rc.Record,
		recordPower: rc.Record || rc.RecordPower,
	}
}

// recording returns the series a lane's current record flags capture,
// building them on first use and keeping them: rec holds only the power
// series until the lane first records in full, then the full set, which
// takes that power series over. A power-only run records into rec's last
// element, so toggling SetRecord between passes allocates nothing once
// the full set exists.
func (ln *lane) recording() trace.Set {
	switch {
	case ln.rec == nil:
		ln.rec = newRecording(trace.NewSeries(seriesNames[powerSeries], ln.nTicks), ln.record, ln.nTicks)
	case ln.record && len(ln.rec) == 1:
		ln.rec = newRecording(ln.rec[0], true, ln.nTicks)
	}
	if !ln.record {
		return ln.rec[len(ln.rec)-1:]
	}
	return ln.rec
}

// reset returns a lane to its initial condition for a fresh run: a reset
// (and optionally warm-started) platform and policy, the measurement the
// first decision reads, and empty metrics and series.
func (ln *lane) reset() error {
	ln.server.Reset()
	ln.policy.Reset()
	if ln.warm != nil {
		if err := ln.server.WarmStart(ln.warm.Util, ln.warm.Fan); err != nil {
			return err
		}
	}
	ln.prev = TickResult{
		Cap:       1,
		FanCmd:    ln.server.FanCommand(),
		FanActual: ln.server.FanActual(),
		Measured:  units.Celsius(ln.server.cfg.Sensor.InitialValue),
	}
	if ln.warm != nil {
		ln.prev.Measured = ln.server.Junction()
		ln.prev.Cap = ln.server.Cap()
	}
	ln.result = Result{}
	ln.violated, ln.hwThrot = 0, 0
	ln.sumJunc, ln.sumFan, ln.sumDeliv, ln.sumDem = 0, 0, 0, 0
	if ln.recordPower {
		ln.result.Traces = ln.recording()
		for i := range ln.result.Traces {
			ln.result.Traces[i].Reset()
		}
	}
	return nil
}

// step advances a lane by tick k at the given demand: policy decision,
// actuation, platform tick, metrics accumulation and recording.
func (ln *lane) step(k int, demand units.Utilization) {
	cmd := ln.policy.Step(Observation{
		T:         units.Seconds(float64(k) * float64(ln.tick)),
		Measured:  ln.prev.Measured,
		Demand:    demand,
		Delivered: ln.prev.Delivered,
		Violated:  ln.prev.Violated,
		FanCmd:    ln.server.FanCommand(),
		FanActual: ln.server.FanActual(),
		Cap:       ln.server.Cap(),
	})
	ln.server.CommandFan(cmd.Fan)
	ln.server.SetCap(cmd.Cap)
	ln.server.TickInto(demand, &ln.prev)
	res := &ln.prev

	m := &ln.result.Metrics
	if res.Violated {
		ln.violated++
	}
	if res.HWThrottled {
		ln.hwThrot++
	}
	m.FanEnergy += res.FanEnergyJ
	m.CPUEnergy += res.CPUEnergyJ
	if res.Junction > m.MaxJunction {
		m.MaxJunction = res.Junction
	}
	if res.Junction > ln.server.cfg.TLimit {
		m.TimeAboveLimit += ln.tick
	}
	ln.sumJunc += float64(res.Junction)
	ln.sumFan += float64(res.FanActual)
	ln.sumDeliv += float64(res.Delivered)
	ln.sumDem += float64(res.Demand)

	if ln.result.Traces != nil {
		record(ln.result.Traces, res)
	}
}

// finish folds a lane's accumulators into its metrics once its last tick
// has run.
func (ln *lane) finish() {
	ln.result.Traces.ShareTime()
	m := &ln.result.Metrics
	m.Ticks = ln.nTicks
	if ln.nTicks > 0 {
		n := float64(ln.nTicks)
		m.ViolationFrac = float64(ln.violated) / n
		m.HWThrottleFrac = float64(ln.hwThrot) / n
		m.MeanJunction = units.Celsius(ln.sumJunc / n)
		m.MeanFanSpeed = units.RPM(ln.sumFan / n)
		m.MeanDelivered = units.Utilization(ln.sumDeliv / n)
		m.MeanDemand = units.Utilization(ln.sumDem / n)
	}
}

package scenario

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/multicore"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Run executes a scenario: validate, dispatch to the kind's runner, and
// return the normalized Outcome. Engine selection is the runner's job —
// multi-job sim scenarios advance through one warm sim.Lockstep instance;
// fleet scenarios resolve the shared inlet field through fleet.Run;
// multicore scenarios use multicore.Run, and fig1 specs step the sensing
// chain open loop. Results are bit-identical at any Workers value.
func Run(s Spec) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out, err := kindTable[s.Kind].fn(s)
	if err != nil {
		return nil, err
	}
	runsExecuted.Add(1)
	return out, nil
}

// Probe counters: how much simulation this process has actually executed.
// Cache hits served by a Store add nothing, which is what lets tests and
// the CI smoke assert that a warm Sweep performs zero simulation ticks.
var (
	simTicksRun  atomic.Int64
	runsExecuted atomic.Int64
)

// ProbeSimTicks returns the total number of server-ticks simulated by
// scenario runners in this process (every lane a relaxation pass steps
// counts).
func ProbeSimTicks() int64 { return simTicksRun.Load() }

// ProbeRuns returns how many scenarios have been executed (not served
// from a store) in this process.
func ProbeRuns() int64 { return runsExecuted.Load() }

// faultServer builds a platform whose sensor path carries the declarative
// fault chain — silicon-side error sources (placement offset, calibration
// bias, slew limit) feeding the clean base chain (noise -> ADC -> transport
// delay), whose output crosses the transport faults (added lag, dropout,
// stuck) and then any correlated bus-segment stages — replicated and fused
// by a sensor.Redundant voter when the spec arms voting. Both the sim-kind
// serverFactory and the fleet node hook route through it. The returned
// voter (nil unless voting) is published into h for the unit's
// failSafePolicy.
func faultServer(cfg sim.Config, f *FaultSpec, segs []*FaultSpec, v *VotingSpec, h *votingHandle) (*sim.PhysicalServer, error) {
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		return nil, err
	}
	pipe, red, err := sensorPipeline(cfg, f, segs, v)
	if err != nil {
		return nil, err
	}
	if err := server.ReplaceSensor(pipe); err != nil {
		return nil, err
	}
	if h != nil {
		h.r = red
	}
	return server, nil
}

// serverFactory builds the job's platform factory, wiring the declarative
// fault chain and voting array when the spec asks for them.
func serverFactory(cfg sim.Config, f *FaultSpec, v *VotingSpec, h *votingHandle) sim.ServerFactory {
	if !f.enabled() && v == nil {
		return sim.Factory(cfg)
	}
	var spec *FaultSpec
	if f.enabled() {
		c := *f
		spec = &c
	}
	return func() (*sim.PhysicalServer, error) {
		return faultServer(cfg, spec, nil, v, h)
	}
}

// buildSimJobs materializes the spec's jobs for the batch engines, every
// one on the spec's Base platform. Jobs whose workload refs are identical
// share one generator instance — generators are read-only during a run,
// and the sharing lets the lockstep engine compile the demand schedule
// once per distinct trace (Table III's five solutions, a Monte Carlo
// seed's cohort) instead of once per job. The returned policies slice
// lets callers label units with the built policies' names.
func (s *Spec) buildSimJobs() ([]sim.Job, []string, error) {
	jobs := make([]sim.Job, len(s.Jobs))
	polNames := make([]string, len(s.Jobs))
	genCache := make(map[string]workload.Generator)
	cfg := s.base()
	for i, j := range s.Jobs {
		gen, err := sharedWorkload(genCache, j.Workload, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: job %d (%s): %w", i, j.Name, err)
		}
		pol, err := buildPolicy(j.Policy, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: job %d (%s): %w", i, j.Name, err)
		}
		var h *votingHandle
		if s.Voting != nil {
			h = &votingHandle{}
			pol = &failSafePolicy{inner: pol, h: h, floor: cfg.FanMaxSpeed}
		}
		polNames[i] = pol.Name()
		name := j.Name
		if name == "" {
			name = pol.Name()
		}
		jobs[i] = sim.Job{
			Name:   name,
			Server: serverFactory(cfg, j.Faults, s.Voting, h),
			Config: sim.RunConfig{
				Duration:  s.Duration,
				Workload:  gen,
				Policy:    pol,
				Record:    s.Record,
				WarmStart: j.WarmStart,
			},
		}
	}
	return jobs, polNames, nil
}

// sharedWorkload builds (or reuses) the generator for a workload ref. The
// cache key is the ref's canonical JSON, so only identical refs alias —
// the safe direction, since a stale share would corrupt determinism while
// a missed share only costs a rebuild.
func sharedWorkload(cache map[string]workload.Generator, ref FactoryRef, cfg sim.Config) (workload.Generator, error) {
	refJSON, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	key := string(refJSON)
	if gen, ok := cache[key]; ok {
		return gen, nil
	}
	gen, err := buildWorkload(ref, cfg)
	if err != nil {
		return nil, err
	}
	cache[key] = gen
	return gen, nil
}

// simOutcome folds batch results into the normalized shape.
//
// Outcomes hold the engines' recorded series as-is, not copies: a unit's
// Series is the lane's (or sim.Run's, fleet's, multicore's) own buffers.
// That is safe because every kind runner builds its own engine instance
// (Lockstep, rack, server) per Run and never steps it again after
// building the Outcome; a runner that reused one across Runs would have
// to copy the series first.
func simOutcome(kind string, jobs []sim.Job, polNames []string, results []*sim.Result) *Outcome {
	out := &Outcome{Kind: kind, Units: make([]Unit, len(results))}
	var ticks int64
	for i, r := range results {
		out.Units[i] = Unit{
			Name:    jobs[i].Name,
			Labels:  map[string]string{"policy": polNames[i]},
			Metrics: simMetricsMap(r.Metrics),
			Series:  r.Traces,
		}
		ticks += int64(r.Metrics.Ticks)
	}
	simTicksRun.Add(ticks)
	return out
}

// runSingle executes a one-job scenario on the plain engine.
func runSingle(s Spec) (*Outcome, error) {
	jobs, polNames, err := s.buildSimJobs()
	if err != nil {
		return nil, err
	}
	server, err := jobs[0].Server()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(server, jobs[0].Config)
	if err != nil {
		return nil, err
	}
	return simOutcome(s.Kind, jobs, polNames, []*sim.Result{res}), nil
}

// runSimBatch executes a KindBatch or KindLockstep scenario as one
// lockstep batch, bit-identical to running each job alone through sim.Run.
// A job that cannot be built fails the scenario before any job steps.
func runSimBatch(s Spec) (*Outcome, error) {
	jobs, polNames, err := s.buildSimJobs()
	if err != nil {
		return nil, err
	}
	ls, err := sim.NewLockstep(jobs, sim.BatchOptions{Workers: s.Workers})
	if err != nil {
		return nil, err
	}
	results, err := ls.Run()
	if err != nil {
		return nil, err
	}
	return simOutcome(s.Kind, jobs, polNames, results), nil
}

// fleetConfig materializes the spec's rack as a fleet.Config.
func (s *Spec) fleetConfig() (fleet.Config, error) {
	fs := s.Fleet
	base := s.base()
	var cfg fleet.Config
	if fs.Size > 0 {
		layout := make([]fleet.Aisle, len(fs.Layout))
		for i, name := range fs.Layout {
			a, err := parseAisle(name)
			if err != nil {
				return fleet.Config{}, err
			}
			layout[i] = a
		}
		rack, err := fleet.NewRack(fs.Size, layout, fs.Seed)
		if err != nil {
			return fleet.Config{}, err
		}
		// Every generated node runs on the spec's Base, as explicit
		// nodes do (NewRack's Table I platform is the nil Base).
		for i := range rack.Nodes {
			rack.Nodes[i].Config = base
		}
		cfg = rack
	} else {
		cfg.Nodes = make([]fleet.NodeSpec, len(fs.Nodes))
		for i, n := range fs.Nodes {
			aisle, err := parseAisle(n.Aisle)
			if err != nil {
				return fleet.Config{}, err
			}
			wref, pref := n.Workload, n.Policy
			cfg.Nodes[i] = fleet.NodeSpec{
				Name:   n.Name,
				Aisle:  aisle,
				Slot:   n.Slot,
				Config: base,
				Workload: func(c sim.Config) (workload.Generator, error) {
					return buildWorkload(wref, c)
				},
				Policy: func(c sim.Config) (sim.Policy, error) {
					return buildPolicy(pref, c)
				},
				WarmStart: n.WarmStart,
			}
		}
		cfg.Supply = 24
		cfg.AisleOffsets = fleet.DefaultOffsets()
	}
	// Fault, segment, and voting wiring. Node-level faults and bus
	// segments exist only on explicit racks (Validate enforces it);
	// voting arms on generated racks too. Each wired node gets its own
	// votingHandle so the per-pass-rebuilt failSafePolicy finds the voter
	// the once-per-run server hook produced.
	var nodeFaults []*FaultSpec
	nodeSegs := make(map[string][]*FaultSpec)
	if fs.Size == 0 {
		nodeFaults = make([]*FaultSpec, len(fs.Nodes))
		for i := range fs.Nodes {
			if fs.Nodes[i].Faults.enabled() {
				c := *fs.Nodes[i].Faults
				nodeFaults[i] = &c
			}
		}
		for si := range fs.Segments {
			c := *fs.Segments[si].Faults
			for _, name := range fs.Segments[si].Nodes {
				nodeSegs[name] = append(nodeSegs[name], &c)
			}
		}
	}
	for i := range cfg.Nodes {
		var f *FaultSpec
		if nodeFaults != nil {
			f = nodeFaults[i]
		}
		segs := nodeSegs[cfg.Nodes[i].Name]
		voting := s.Voting
		if f == nil && len(segs) == 0 && voting == nil {
			continue
		}
		var h *votingHandle
		if voting != nil {
			h = &votingHandle{}
			inner := cfg.Nodes[i].Policy
			cfg.Nodes[i].Policy = func(c sim.Config) (sim.Policy, error) {
				pol, err := inner(c)
				if err != nil {
					return nil, err
				}
				return &failSafePolicy{inner: pol, h: h, floor: c.FanMaxSpeed}, nil
			}
		}
		cfg.Nodes[i].Server = func(c sim.Config) (*sim.PhysicalServer, error) {
			return faultServer(c, f, segs, voting, h)
		}
	}
	if fs.Supply != 0 {
		cfg.Supply = fs.Supply
	}
	if fs.AisleOffsets != nil {
		cfg.AisleOffsets = [fleet.NumAisles]units.Celsius{
			fleet.Cold: fs.AisleOffsets[0],
			fleet.Mid:  fs.AisleOffsets[1],
			fleet.Hot:  fs.AisleOffsets[2],
		}
	}
	cfg.Recirc = fs.Recirc
	cfg.RecircPasses = fs.RecircPasses
	cfg.RecircTol = fs.RecircTol
	cfg.MaxRecircPasses = fs.MaxRecircPasses
	cfg.Duration = s.Duration // Validate guarantees > 0
	cfg.Workers = s.Workers
	cfg.Record = s.Record
	return cfg, nil
}

// The fleet aggregate metric keys.
const (
	MetricPasses         = "passes"
	MetricTotalEnergyJ   = "total_energy_j"
	MetricFanEnergyShare = "fan_energy_share"
	MetricPeakRackPowerW = "peak_rack_power_w"
	MetricMeanRackPowerW = "mean_rack_power_w"
	MetricSlot           = "slot"
	MetricInletC         = "inlet_c"
)

// fleetUnits folds a rack result's per-node views into outcome units.
func fleetUnits(res *fleet.Result) []Unit {
	units := make([]Unit, len(res.Nodes))
	for i, n := range res.Nodes {
		m := simMetricsMap(n.Metrics)
		m[MetricSlot] = float64(n.Slot)
		m[MetricInletC] = float64(n.Inlet)
		units[i] = Unit{
			Name:    n.Name,
			Labels:  map[string]string{"aisle": n.Aisle.String()},
			Metrics: m,
			Series:  n.Traces,
		}
	}
	return units
}

// fleetAggregate folds a rack result's rack- and aisle-level metrics into
// the normalized aggregate map.
func fleetAggregate(res *fleet.Result) map[string]float64 {
	agg := map[string]float64{
		MetricPasses:         float64(res.Passes),
		MetricTicks:          float64(res.Ticks),
		MetricViolationFrac:  res.ViolationFrac,
		MetricFanEnergyJ:     float64(res.FanEnergy),
		MetricCPUEnergyJ:     float64(res.CPUEnergy),
		MetricTotalEnergyJ:   float64(res.TotalEnergy),
		MetricFanEnergyShare: res.FanEnergyShare,
		MetricMaxJunctionC:   float64(res.MaxJunction),
		MetricTimeAboveS:     float64(res.TimeAboveLimit),
		MetricPeakRackPowerW: float64(res.PeakRackPower),
		MetricMeanRackPowerW: float64(res.MeanRackPower),
	}
	for a, am := range res.Aisles {
		if am.Nodes == 0 {
			continue
		}
		prefix := "aisle_" + fleet.Aisle(a).String() + "_"
		agg[prefix+"nodes"] = float64(am.Nodes)
		agg[prefix+MetricViolationFrac] = am.ViolationFrac
		agg[prefix+MetricFanEnergyJ] = float64(am.FanEnergy)
		agg[prefix+MetricCPUEnergyJ] = float64(am.CPUEnergy)
		agg[prefix+MetricMaxJunctionC] = float64(am.MaxJunction)
		agg[prefix+"mean_inlet_c"] = float64(am.MeanInlet)
	}
	return agg
}

// runFleet executes a rack scenario through the fleet engine.
func runFleet(s Spec) (*Outcome, error) {
	cfg, err := s.fleetConfig()
	if err != nil {
		return nil, err
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Kind: s.Kind, Units: fleetUnits(res), Aggregate: fleetAggregate(res)}
	simTicksRun.Add(int64(res.LaneTicks))
	return out, nil
}

// The fleetcoord metric keys: the coordinated rack carries the usual
// fleet aggregates, the local (per-node control) baseline rides along
// under the "local_" prefix, and the per-node units expose the winning
// plan (demand share, arbitrated ceilings).
const (
	MetricShare          = "share"
	MetricCapCeil        = "cap_ceil"
	MetricFanCeilRPM     = "fan_ceil_rpm"
	MetricCoordRounds    = "coord_rounds"
	MetricCoordBestRound = "coord_best_round"
	MetricCoordBudgetW   = "coord_budget_w"
	MetricCoordMigrated  = "coord_migrated_share"
	LocalMetricPrefix    = "local_"
)

// coordinatorConfig maps the spec's Params knobs onto the fleet
// coordinator configuration (zero/absent knobs keep the defaults).
func coordinatorConfig(p Params) fleet.CoordinatorConfig {
	return fleet.CoordinatorConfig{
		PowerBudget:   units.Watt(p.Get("power_budget_w", 0)),
		MigrationGain: p.Get("migration_gain", 0),
		MaxShare:      p.Get("max_share", 0),
		MinShare:      p.Get("min_share", 0),
		PeakTarget:    p.Get("peak_target", 0),
		Rounds:        int(p.Get("rounds", 0)),
		CapFloor:      units.Utilization(p.Get("cap_floor", 0)),
		FanTrim:       p.Get("fan_trim", 0),
	}
}

// runFleetCoord executes a rack scenario under the global coordinator and
// reports coordinated-vs-local side by side in one outcome.
func runFleetCoord(s Spec) (*Outcome, error) {
	cfg, err := s.fleetConfig()
	if err != nil {
		return nil, err
	}
	res, err := fleet.RunCoordinated(cfg, coordinatorConfig(s.Params))
	if err != nil {
		return nil, err
	}
	out := &Outcome{Kind: s.Kind, Units: fleetUnits(res.Coordinated)}
	for i := range out.Units {
		out.Units[i].Metrics[MetricShare] = res.Shares[i]
		if res.CapCeils != nil {
			out.Units[i].Metrics[MetricCapCeil] = float64(res.CapCeils[i])
		}
		if res.FanCeils != nil {
			out.Units[i].Metrics[MetricFanCeilRPM] = float64(res.FanCeils[i])
		}
	}
	agg := fleetAggregate(res.Coordinated)
	for k, v := range fleetAggregate(res.Local) {
		agg[LocalMetricPrefix+k] = v
	}
	agg[MetricCoordRounds] = float64(res.Rounds)
	agg[MetricCoordBestRound] = float64(res.BestRound)
	agg[MetricCoordBudgetW] = float64(res.Budget)
	agg[MetricCoordMigrated] = res.MigratedShare
	out.Aggregate = agg
	simTicksRun.Add(int64(res.LaneTicks))
	return out, nil
}

// The multicore metric keys.
const (
	MetricMigrations      = "migrations"
	MetricFanAmplitudeRPM = "fan_amplitude_rpm"
	MetricCoreSpreadC     = "core_spread_c"
)

// runMulticore executes the three-controller scenario.
func runMulticore(s Spec) (*Outcome, error) {
	ms := s.Multicore
	mc := multicore.DefaultConfig()
	mc.Base = s.base()
	// Keep the balanced-load equivalence with the single-socket model: N
	// cores in parallel must reproduce DieRes.
	mc.CoreRes = mc.Base.DieRes * units.KPerW(mc.NCore)
	gen, err := buildWorkload(ms.Workload, mc.Base)
	if err != nil {
		return nil, err
	}
	res, err := multicore.Run(multicore.RunConfig{
		Config:     mc,
		Duration:   s.Duration,
		Workload:   gen,
		Skewed:     ms.Skewed,
		Coordinate: ms.Coordinate,
		Record:     s.Record,
	})
	if err != nil {
		return nil, err
	}
	name := s.Name
	if name == "" {
		name = "multicore"
	}
	nTicks := int64(float64(s.Duration) / float64(mc.Base.Tick))
	simTicksRun.Add(nTicks)
	return &Outcome{
		Kind: s.Kind,
		Units: []Unit{{
			Name: name,
			Metrics: map[string]float64{
				MetricTicks:           float64(nTicks),
				MetricViolationFrac:   res.ViolationFrac,
				MetricMigrations:      float64(res.Migrations),
				MetricFanEnergyJ:      float64(res.FanEnergy),
				MetricMaxJunctionC:    float64(res.MaxJunction),
				MetricFanAmplitudeRPM: res.FanAmplitude,
				MetricCoreSpreadC:     res.CoreSpread,
			},
			Series: res.Traces,
		}},
	}, nil
}

// The fig1 metric keys.
const (
	MetricMeasuredLagS = "measured_lag_s"
	MetricNominalLagS  = "nominal_lag_s"
)

// runFig1 executes the Fig. 1 telemetry probe: a 0.1 -> 0.7 utilization
// step whose CPU power is read, open loop, through the bus-contention
// delay and the 8-bit acquisition path, on the default platform. Both
// series are normalized to [0, 1] like the paper's plot and kept only if
// the spec records; the measured lag is the sensor trace's half-rise
// crossing relative to the step instant.
func runFig1(s Spec) (*Outcome, error) {
	cfg := sim.Default()
	cpu, _, err := cfg.Models()
	if err != nil {
		return nil, err
	}
	bus := sensor.Bus{
		BaseLatency:  units.Seconds(s.Params.Get("bus_base_latency", 2)),
		TransferTime: units.Seconds(s.Params.Get("bus_transfer_time", 0.5)),
		NSensors:     int(s.Params.Get("bus_sensors", 16)),
	}
	if err := bus.Validate(); err != nil {
		return nil, err
	}
	stepTime := units.Seconds(s.Params.Get("step_time", 100))

	step := workload.Step{Before: 0.1, After: 0.7, Time: stepTime}
	idlePower := float64(cpu.Power(0.1))
	span := float64(cpu.Power(0.7)) - idlePower

	delay, err := bus.DelayLine(idlePower)
	if err != nil {
		return nil, err
	}
	quant, err := sensor.NewQuantizer(8, 0, 255)
	if err != nil {
		return nil, err
	}
	pipe := sensor.NewPipeline(quant, delay)

	nTicks := int(float64(s.Duration) / float64(cfg.Tick))
	ts := trace.Set{trace.NewSeries("cpu_utilization", nTicks), trace.NewSeries("power_sensor", nTicks)}
	sUtil, sSensor := &ts[0], &ts[1]
	for k := 0; k < nTicks; k++ {
		t := units.Seconds(float64(k) * float64(cfg.Tick))
		u := step.At(t)
		p := float64(cpu.Power(u))
		meas := pipe.Sample(t, p)
		sUtil.MustAppend(float64(t), (p-idlePower)/span)
		sSensor.MustAppend(float64(t), (meas-idlePower)/span)
	}
	simTicksRun.Add(int64(nTicks))

	lag := units.Seconds(0)
	if xs := sSensor.Crossings(0.5); len(xs) > 0 {
		lag = units.Seconds(xs[0]) - stepTime
	}
	if !s.Record {
		ts = nil
	}
	return &Outcome{
		Kind: s.Kind,
		Units: []Unit{{
			Name: "fig1",
			Metrics: map[string]float64{
				MetricTicks:        float64(nTicks),
				MetricMeasuredLagS: float64(lag),
				MetricNominalLagS:  float64(bus.Lag()),
			},
			Series: ts,
		}},
	}, nil
}

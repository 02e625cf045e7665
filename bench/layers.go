package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Replay probes. Layers the daemon runs inside one request (decode,
// validate, hash, encode) cannot be timed from outside it without
// instrumenting the program, so the traced run replays the workload's
// own requests through each of those steps alone. The engine's layers get
// the same treatment: one full-stack run's per-stage inputs are recorded
// and each stage is replayed alone in a timed batch. Every probe runs in
// every traced run, so each per-layer metric has a value on every
// workload.

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink float64

// microseconds converts durations to microseconds.
func microseconds(ds []time.Duration) []float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return us
}

// replayReps is how often each replayed cell goes through the request path.
const replayReps = 4

// requestPath times the daemon's per-request steps on the workload's
// sampled cells: the strict spec decode, Validate, Key, the JobStatus
// encode, and the client's decode of that reply.
func requestPath(cells []cell) (map[string]float64, error) {
	var dec, val, key, enc, cdec []time.Duration
	var size []float64
	for rep := 0; rep < replayReps; rep++ {
		for _, c := range cells {
			body, err := json.Marshal(c.spec)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			d := json.NewDecoder(bytes.NewReader(body))
			d.DisallowUnknownFields()
			var spec scenario.Spec
			if err := d.Decode(&spec); err != nil {
				return nil, fmt.Errorf("replaying decode: %w", err)
			}
			t1 := time.Now()
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("replaying validate: %w", err)
			}
			t2 := time.Now()
			k, err := scenario.Key(spec)
			if err != nil {
				return nil, err
			}
			t3 := time.Now()
			var buf bytes.Buffer
			st := service.JobStatus{Key: k, State: service.StateDone, Cached: true, Outcome: c.out}
			if err := json.NewEncoder(&buf).Encode(st); err != nil {
				return nil, err
			}
			t4 := time.Now()
			var back service.JobStatus
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				return nil, err
			}
			t5 := time.Now()
			dec = append(dec, t1.Sub(t0))
			val = append(val, t2.Sub(t1))
			key = append(key, t3.Sub(t2))
			enc = append(enc, t4.Sub(t3))
			cdec = append(cdec, t5.Sub(t4))
			size = append(size, float64(buf.Len()))
		}
	}
	return map[string]float64{
		"service.http.decode_us":   median(microseconds(dec)),
		"scenario.validate_us":     median(microseconds(val)),
		"scenario.key_us":          median(microseconds(key)),
		"service.http.encode_us":   median(microseconds(enc)),
		"service.client.decode_us": median(microseconds(cdec)),
		"service.resp_bytes":       median(size),
	}, nil
}

// storePath times the on-disk store on the workload's sampled cells in a
// fresh store at dir: Put each distinct cell, read each back by key, and
// list the store (per cell, as every cap-less daemon Put does).
func storePath(dir string, cells []cell) (map[string]float64, error) {
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var keys []string
	var put, get, list []time.Duration
	for _, c := range cells {
		k, err := scenario.Key(c.spec)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		t0 := time.Now()
		if err := st.Put(c.spec, c.out); err != nil {
			return nil, err
		}
		put = append(put, time.Since(t0))
	}
	for rep := 0; rep < replayReps; rep++ {
		for _, k := range keys {
			t0 := time.Now()
			if _, ok, err := st.GetKey(k); err != nil || !ok {
				return nil, fmt.Errorf("replaying store get %s: ok=%v err=%v", k, ok, err)
			}
			get = append(get, time.Since(t0))
		}
		t0 := time.Now()
		infos, err := st.List()
		if err != nil {
			return nil, err
		}
		list = append(list, time.Since(t0)/time.Duration(max(1, len(infos))))
	}
	return map[string]float64{
		"scenario.store.put_us":           median(microseconds(put)),
		"scenario.store.get_us":           median(microseconds(get)),
		"scenario.store.list_us_per_cell": median(microseconds(list)),
	}, nil
}

// probeRun runs spec on one worker a few times and returns the medians
// of its wall time (ms) and heap allocations, with the first run's
// outcome and server-ticks. Ticks repeat exactly; allocations repeat to
// within a few, since Go seeds every map's hash randomly and a map's
// layout, so its allocations, follow the seed.
func probeRun(spec scenario.Spec) (ms float64, out *scenario.Outcome, ticks int64, allocs float64, err error) {
	const reps = 3
	spec.Workers = 1
	var times, mallocs []float64
	for rep := 0; rep < reps; rep++ {
		var before, after runtime.MemStats
		ticks0 := scenario.ProbeSimTicks()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		o, err := scenario.Run(spec)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, nil, 0, 0, err
		}
		times = append(times, float64(d)/float64(time.Millisecond))
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		if rep == 0 {
			out, ticks = o, scenario.ProbeSimTicks()-ticks0
		}
	}
	return median(times), out, ticks, median(mallocs), nil
}

// kindRuns probes the first round's spec of every engine kind.
func kindRuns(seed int64) (map[string]float64, map[string]*scenario.Outcome, error) {
	m := map[string]float64{}
	outs := map[string]*scenario.Outcome{}
	for r, kind := range engineKinds {
		spec, err := engineSpec(seed, r)
		if err != nil {
			return nil, nil, err
		}
		ms, out, ticks, allocs, err := probeRun(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s probe run: %w", kind, err)
		}
		m["scenario."+kind+".run_ms"] = ms
		m["scenario."+kind+".ticks"] = float64(ticks)
		m["scenario."+kind+".allocs"] = allocs
		outs[kind] = out
	}
	return m, outs, nil
}

// tickRecord is one tick of the recorded full-stack run: what each stage
// consumed.
type tickRecord struct {
	t         units.Seconds
	obs       sim.Observation
	delivered units.Utilization
	cpuP      units.Watt
	fanAct    units.RPM
	junction  units.Celsius
}

// stageReps is how many timed batches each stage replay runs; the median
// batch is reported.
const stageReps = 15

// tickHorizon is the recorded run's length in ticks.
const tickHorizon = 3600

// tickRig builds the recorded run: the full stack on the Table III demand
// trace at a 33 °C inlet, warm-started.
func tickRig(seed int64) (sim.Config, *sim.PhysicalServer, sim.Policy, workload.Generator, error) {
	cfg := sim.Default()
	cfg.Ambient = 33
	factory, ok := scenario.LookupWorkload("table3")
	if !ok {
		return cfg, nil, nil, nil, fmt.Errorf("table3 workload not registered")
	}
	gen, err := factory(cfg, seed, scenario.Params{"period": 600, "sigma": 0.04, "spike_len": 30, "duration": tickHorizon})
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	pol, err := core.NewFullStack(cfg)
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	if err := server.WarmStart(0.1, 1200); err != nil {
		return cfg, nil, nil, nil, err
	}
	return cfg, server, pol, gen, nil
}

// runTicks runs the closed loop the engine runs each tick — demand,
// policy decision, actuation, platform tick — recording every tick's
// stage inputs into rec when it is non-nil.
func runTicks(server *sim.PhysicalServer, pol sim.Policy, gen workload.Generator, tick units.Seconds, rec []tickRecord) {
	prev := sim.TickResult{Cap: 1, FanCmd: server.FanCommand(), FanActual: server.FanActual(), Measured: server.Junction()}
	var res sim.TickResult
	for k := 0; k < tickHorizon; k++ {
		t := units.Seconds(float64(k) * float64(tick))
		demand := gen.At(t)
		obs := sim.Observation{
			T: t, Measured: prev.Measured, Demand: demand, Delivered: prev.Delivered,
			Violated: prev.Violated, FanCmd: server.FanCommand(), FanActual: server.FanActual(), Cap: server.Cap(),
		}
		cmd := pol.Step(obs)
		server.CommandFan(cmd.Fan)
		server.SetCap(cmd.Cap)
		server.TickInto(demand, &res)
		prev = res
		if rec != nil {
			rec[k] = tickRecord{t: t, obs: obs, delivered: res.Delivered, cpuP: res.CPUPower, fanAct: res.FanActual, junction: res.Junction}
		}
	}
}

// votingChain is the three-replica voting array over the full non-ideal
// chain (placement offset, calibration bias, slew limit, base chain,
// dropout), the worst-case sensing the scenario layer configures.
func votingChain(cfg sim.Config, seed int64) (*sensor.Pipeline, error) {
	chains := make([]sensor.Stage, 3)
	for j := range chains {
		base, err := sensor.New(cfg.Sensor)
		if err != nil {
			return nil, err
		}
		place, err := sensor.NewPlacementOffset(0.05)
		if err != nil {
			return nil, err
		}
		calib, err := sensor.NewCalibrationBias(4, stats.SubSeed(seed, int64(10+j)))
		if err != nil {
			return nil, err
		}
		slew, err := sensor.NewSlewLimit(0.5)
		if err != nil {
			return nil, err
		}
		drop, err := sensor.NewDropout(0.2, stats.SubSeed(seed, int64(20+j)))
		if err != nil {
			return nil, err
		}
		chains[j] = sensor.NewPipeline(place, calib, slew, base, drop)
	}
	red, err := sensor.NewRedundant(sensor.RedundantConfig{RangeMin: cfg.Sensor.RangeMin, RangeMax: cfg.Sensor.RangeMax}, chains...)
	if err != nil {
		return nil, err
	}
	return sensor.NewPipeline(red), nil
}

// timeBatches runs batch stageReps times (prepare runs untimed before
// each) and returns the median batch's time per tick, in ns.
func timeBatches(prepare func() error, batch func()) (float64, error) {
	per := make([]float64, 0, stageReps)
	for rep := 0; rep < stageReps; rep++ {
		if err := prepare(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/tickHorizon)
	}
	return median(per), nil
}

// tickStages splits the engine tick: it records one full-stack run and
// replays each stage alone on the recorded inputs. The unexplained
// remainder is the tick minus its stages (the loop itself, actuation, fan
// slew, result bookkeeping).
func tickStages(seed int64) (map[string]float64, error) {
	cfg, server, pol, gen, err := tickRig(seed)
	if err != nil {
		return nil, err
	}
	sink0, junc0 := server.Thermal().Sink(), server.Thermal().Junction()
	rec := make([]tickRecord, tickHorizon)
	runTicks(server, pol, gen, cfg.Tick, rec)

	m := map[string]float64{}
	var srv *sim.PhysicalServer
	var p sim.Policy
	var g workload.Generator
	if m["sim.tick_ns"], err = timeBatches(func() error {
		_, srv, p, g, err = tickRig(seed)
		return err
	}, func() { runTicks(srv, p, g, cfg.Tick, nil) }); err != nil {
		return nil, err
	}
	if m["workload.at_ns"], err = timeBatches(func() error { return nil }, func() {
		for i := range rec {
			sink += float64(gen.At(rec[i].t))
		}
	}); err != nil {
		return nil, err
	}
	var fresh sim.Policy
	if m["core.policy_ns"], err = timeBatches(func() error {
		fresh, err = core.NewFullStack(cfg)
		return err
	}, func() {
		for i := range rec {
			sink += float64(fresh.Step(rec[i].obs).Fan)
		}
	}); err != nil {
		return nil, err
	}
	th, err := cfg.ThermalModel()
	if err != nil {
		return nil, err
	}
	if m["thermal.step_ns"], err = timeBatches(func() error {
		th.SetState(sink0, junc0)
		return nil
	}, func() {
		for i := range rec {
			sink += float64(th.Step(rec[i].cpuP, rec[i].fanAct, cfg.Tick))
		}
	}); err != nil {
		return nil, err
	}
	var pipe *sensor.Pipeline
	if m["sensor.sample_ns"], err = timeBatches(func() error {
		pipe, err = sensor.New(cfg.Sensor)
		return err
	}, func() {
		for i := range rec {
			sink += pipe.Sample(rec[i].t, float64(rec[i].junction))
		}
	}); err != nil {
		return nil, err
	}
	if m["sensor.voting_ns"], err = timeBatches(func() error {
		pipe, err = votingChain(cfg, seed)
		return err
	}, func() {
		for i := range rec {
			pipe.ObservePower(float64(rec[i].cpuP))
			sink += pipe.Sample(rec[i].t, float64(rec[i].junction))
		}
	}); err != nil {
		return nil, err
	}
	cpu, fan, err := cfg.Models()
	if err != nil {
		return nil, err
	}
	if m["power.model_ns"], err = timeBatches(func() error { return nil }, func() {
		for i := range rec {
			sink += float64(cpu.Power(rec[i].delivered) + fan.Power(rec[i].fanAct))
		}
	}); err != nil {
		return nil, err
	}
	m["sim.tick_unexplained_ns"] = m["sim.tick_ns"] - m["workload.at_ns"] - m["core.policy_ns"] -
		m["thermal.step_ns"] - m["sensor.sample_ns"] - m["power.model_ns"]
	return m, nil
}

// laneTickNS times one warm eight-lane lockstep pass of 900 s full-stack
// servers (the shape of one fleet relaxation pass) per lane-tick.
func laneTickNS(seed int64) (float64, error) {
	cfg := sim.Default()
	jobs := make([]sim.Job, 8)
	for i := range jobs {
		gen, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, stats.SubSeed(seed, int64(30+i)))
		if err != nil {
			return 0, err
		}
		pol, err := core.NewFullStack(cfg)
		if err != nil {
			return 0, err
		}
		jobs[i] = sim.Job{
			Name:   fmt.Sprintf("lane-%d", i),
			Server: sim.Factory(cfg),
			Config: sim.RunConfig{Duration: 900, Workload: gen, Policy: pol, RecordPower: true,
				WarmStart: &sim.WarmPoint{Util: 0.2, Fan: 1500}},
		}
	}
	ls, err := sim.NewLockstep(jobs, sim.BatchOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	if _, err := ls.Run(); err != nil { // warm rings and buffers
		return 0, err
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := ls.Run(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ls.Len()*ls.Ticks()))
	}
	return median(per), nil
}

// engineLayers gathers the engine's per-layer metrics: per-kind runs, the
// tick split, the lockstep lane cost, and the fleet and coordinator runs
// split into relaxation passes and the rest (rack construction and
// aggregation, coordinator planning).
func engineLayers(seed int64) (map[string]float64, error) {
	m, outs, err := kindRuns(seed)
	if err != nil {
		return nil, err
	}
	ticks, err := tickStages(seed)
	if err != nil {
		return nil, err
	}
	for k, v := range ticks {
		m[k] = v
	}
	if m["sim.lockstep.lane_tick_ns"], err = laneTickNS(seed); err != nil {
		return nil, err
	}

	// A pass costs what one more pass adds: the fleet run against the same
	// rack without recirculation, which resolves in exactly one pass.
	spec, err := engineSpec(seed, 2)
	if err != nil {
		return nil, err
	}
	onePass := *spec.Fleet
	onePass.Recirc = 0
	spec.Fleet = &onePass
	oneMS, _, _, _, err := probeRun(spec)
	if err != nil {
		return nil, fmt.Errorf("one-pass fleet probe run: %w", err)
	}
	passes := outs["fleet"].Aggregate[scenario.MetricPasses]
	passMS := oneMS
	if passes > 1 {
		passMS = (m["scenario.fleet.run_ms"] - oneMS) / (passes - 1)
	}
	const rackTicks = 8 * 900 // nodes × ticks of one relaxation pass of both racks
	m["fleet.passes"] = passes
	m["fleet.pass_ms"] = passMS
	m["fleet.aggregate_ms"] = oneMS - passMS
	m["coord.rounds"] = outs["fleetcoord"].Aggregate[scenario.MetricCoordRounds]
	m["coord.passes"] = m["scenario.fleetcoord.ticks"] / rackTicks
	m["coord.plan_ms"] = m["scenario.fleetcoord.run_ms"] - m["coord.passes"]*passMS
	return m, nil
}

// hostCalib times a fixed SHA-256 loop, in ns per 64 KiB block. It does
// not depend on the program, so it separates host drift from program
// change when two runs are compared.
func hostCalib() float64 {
	block := make([]byte, 64<<10)
	for i := range block {
		block[i] = byte(i)
	}
	const n = 64
	per := make([]float64, 0, 5)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := sha256.Sum256(block)
			block[0] = s[0]
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(per)
}

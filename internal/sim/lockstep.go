package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file is the lockstep structure-of-arrays batch runner: where
// RunBatch hands each job its own private simulation loop, a Lockstep
// advances N same-shape servers over one horizon from a single warm
// instance. Construction does all the expensive, pass-invariant work once
// — servers are built, workload generators are precompiled into per-tick
// demand schedules (deduplicated across jobs sharing a generator, e.g. the
// five Table III solutions fed by one trace), and every result, metrics
// accumulator and recorded series is preallocated — so re-stepping the
// batch is allocation-free and skips the per-tick workload evaluation
// entirely. The fleet layer's recirculation fixed point re-runs the same
// rack with updated inlet temperatures every relaxation pass; holding one
// warm Lockstep per rack turns each pass into a pure re-step.
//
// Results are bit-identical to running the same jobs through RunBatch (or
// sequentially): every lane owns its server and policy, performs exactly
// the floating-point operations sim.Run would, in the same order, and no
// lane reads another's state. Tests assert DeepEqual against RunBatch
// across batch sizes and worker counts.
//
// Schedule: lanes are sharded contiguously over the workers, and each
// worker steps its lanes one at a time, each through its whole horizon
// (lane-major). Lanes are built one after another, so neighbours share
// 64-byte cache lines; two workers stepping neighbours at once would
// bounce those lines between cores every tick. Lane-major order steps a
// shard's edge lanes at opposite ends of the pass, so neighbours across a
// shard boundary never run together — except a shard of one lane (fewer
// than two lanes per worker), which runs beside its neighbour throughout.
// A worker that finishes its shard takes the rest of another from its far
// end (see runShared).
//
// Eligibility: all jobs must share one engine tick and one duration, so
// one tick length and tick count serve every lane. NewLockstep reports
// ErrHeterogeneous otherwise; RunLockstep is the drop-in entry point that
// falls back to RunBatch in that case.

// ErrHeterogeneous reports a job set the lockstep runner cannot batch on
// one clock (mixed engine ticks or durations). Callers fall back to
// RunBatch, which has no such constraint.
var ErrHeterogeneous = errors.New("sim: jobs not lockstep-eligible (mixed tick or duration)")

// lane is one server's slot in the lockstep batch.
type lane struct {
	name   string
	server *PhysicalServer
	policy Policy
	warm   *WarmPoint
	demand []units.Utilization // precompiled schedule, one entry per tick
	// scale multiplies the precompiled schedule at step time (results
	// clamped to [0, 1]); 1 leaves the schedule untouched bit for bit. The
	// fleet coordinator migrates divisible workload share between rack
	// nodes by adjusting lane scales between relaxations.
	scale float64

	record      bool
	recordPower bool

	// Reused output state: the result, its metrics, and (lazily built,
	// then retained) the recorded series. Returned results alias these
	// and stay valid until the next Run.
	result   Result
	prev     TickResult
	tsFull   *trace.Set
	tsPower  *trace.Set
	sDemand  *trace.Series
	sDeliv   *trace.Series
	sCap     *trace.Series
	sFanCmd  *trace.Series
	sFanAct  *trace.Series
	sJunc    *trace.Series
	sMeas    *trace.Series
	sPower   *trace.Series
	violated int
	hwThrot  int
	sumJunc  float64
	sumFan   float64
	sumDeliv float64
	sumDem   float64
}

// Lockstep is a warm batch of same-clock simulations. Build one with
// NewLockstep, run it with Run, and re-step it after adjusting per-lane
// ambients or policies (SetAmbient, SetPolicy) — construction work is
// never repeated.
type Lockstep struct {
	tick    units.Seconds
	nTicks  int
	workers int
	lanes   []lane
	results []*Result
}

// NewLockstep builds a warm lockstep batch from the jobs: servers are
// constructed (one per job, via its factory), demand schedules are
// precompiled, and all result storage is preallocated. It returns
// ErrHeterogeneous when the jobs do not share one tick and duration, and a
// *BatchError for per-job defects (nil factory, nil workload or policy,
// aliased policies, non-positive duration) — mirroring RunBatch's checks.
func NewLockstep(jobs []Job, opts BatchOptions) (*Lockstep, error) {
	if len(jobs) == 0 {
		return &Lockstep{results: []*Result{}}, nil
	}
	seen := make(map[Policy]int, len(jobs))
	for i, j := range jobs {
		if j.Server == nil {
			return nil, &BatchError{Index: i, Name: j.Name, Err: fmt.Errorf("nil ServerFactory")}
		}
		if j.Config.Workload == nil {
			return nil, &BatchError{Index: i, Name: j.Name, Err: fmt.Errorf("nil workload")}
		}
		if j.Config.Policy == nil {
			return nil, &BatchError{Index: i, Name: j.Name, Err: fmt.Errorf("nil policy")}
		}
		if j.Config.Duration <= 0 {
			return nil, &BatchError{Index: i, Name: j.Name, Err: fmt.Errorf("non-positive duration %v", j.Config.Duration)}
		}
		if p := j.Config.Policy; reflect.ValueOf(p).Kind() == reflect.Pointer {
			if prev, dup := seen[p]; dup {
				return nil, &BatchError{
					Index: i, Name: j.Name,
					Err: fmt.Errorf("shares a Policy instance with job %d; give every job its own", prev),
				}
			}
			seen[p] = i
		}
		if j.Config.Duration != jobs[0].Config.Duration {
			return nil, ErrHeterogeneous
		}
	}

	ls := &Lockstep{
		workers: opts.Workers,
		lanes:   make([]lane, len(jobs)),
		results: make([]*Result, len(jobs)),
	}
	schedules := make(map[workload.Generator][]units.Utilization, len(jobs))
	for i, j := range jobs {
		server, err := j.Server()
		if err != nil {
			return nil, &BatchError{Index: i, Name: j.Name, Err: err}
		}
		if i == 0 {
			ls.tick = server.cfg.Tick
			ls.nTicks = int(float64(j.Config.Duration) / float64(ls.tick))
		} else if server.cfg.Tick != ls.tick {
			return nil, ErrHeterogeneous
		}
		ln := &ls.lanes[i]
		ln.name = j.Name
		ln.server = server
		ln.policy = j.Config.Policy
		ln.scale = 1
		ln.warm = j.Config.WarmStart
		ln.record = j.Config.Record
		ln.recordPower = j.Config.Record || j.Config.RecordPower
		ln.demand = compileSchedule(schedules, j.Config.Workload, ls.nTicks, ls.tick)
		ls.results[i] = &ln.result
	}
	return ls, nil
}

// compileSchedule evaluates gen at every tick into a demand schedule,
// reusing an already-compiled schedule when the same generator instance
// drives several jobs (generators are deterministic and read-only, so the
// samples are shared safely). Only comparable generator types participate
// in deduplication.
func compileSchedule(cache map[workload.Generator][]units.Utilization,
	gen workload.Generator, nTicks int, tick units.Seconds) []units.Utilization {
	cmp := reflect.TypeOf(gen).Comparable()
	if cmp {
		if s, ok := cache[gen]; ok {
			return s
		}
	}
	s := make([]units.Utilization, nTicks)
	for k := range s {
		s[k] = gen.At(units.Seconds(float64(k) * float64(tick)))
	}
	if cmp {
		cache[gen] = s
	}
	return s
}

// Len returns the number of lanes in the batch.
func (ls *Lockstep) Len() int { return len(ls.lanes) }

// Ticks returns the per-lane tick count of one run.
func (ls *Lockstep) Ticks() int { return ls.nTicks }

// SetAmbient re-homes lane i's platform at a new inlet temperature. The
// next Run simulates from that operating point; an invalid combination
// (e.g. an inlet at or above the thermal limit) errors like server
// construction would.
func (ls *Lockstep) SetAmbient(i int, t units.Celsius) error {
	if err := ls.lanes[i].server.SetAmbient(t); err != nil {
		return fmt.Errorf("sim: lockstep lane %d (%s): %w", i, ls.lanes[i].name, err)
	}
	return nil
}

// SetPolicy replaces lane i's DTM policy (the fleet fixed point rebuilds
// policies against each pass's resolved inlet). The policy must not be
// shared with any other lane.
func (ls *Lockstep) SetPolicy(i int, p Policy) error {
	if p == nil {
		return fmt.Errorf("sim: lockstep lane %d (%s): nil policy", i, ls.lanes[i].name)
	}
	if reflect.ValueOf(p).Kind() == reflect.Pointer {
		for j := range ls.lanes {
			if j != i && ls.lanes[j].policy == p {
				return fmt.Errorf("sim: lockstep lane %d (%s): shares a Policy instance with lane %d", i, ls.lanes[i].name, j)
			}
		}
	}
	ls.lanes[i].policy = p
	return nil
}

// SetDemandScale multiplies lane i's precompiled demand schedule by f for
// subsequent runs; scaled samples are clamped to [0, 1] at step time. A
// scale of 1 restores the schedule bit for bit (the multiplication is
// skipped entirely). The schedule itself is never modified — scaling a
// lane whose generator is shared with other lanes affects only that lane.
func (ls *Lockstep) SetDemandScale(i int, f float64) error {
	if f < 0 || !units.IsFinite(f) {
		return fmt.Errorf("sim: lockstep lane %d (%s): bad demand scale %v", i, ls.lanes[i].name, f)
	}
	ls.lanes[i].scale = f
	return nil
}

// DemandScale returns lane i's current demand scale.
func (ls *Lockstep) DemandScale(i int) float64 { return ls.lanes[i].scale }

// MeanDemand returns the mean of lane i's unscaled precompiled demand
// schedule — the divisible workload share the fleet coordinator
// redistributes between nodes.
func (ls *Lockstep) MeanDemand(i int) float64 {
	ln := &ls.lanes[i]
	if len(ln.demand) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range ln.demand {
		sum += float64(d)
	}
	return sum / float64(len(ln.demand))
}

// MaxDemand returns the peak of lane i's unscaled precompiled demand
// schedule. The coordinator bounds a node's receivable share by its peak:
// scaling a trace whose spikes already graze full load would clamp the
// spikes and overload the node the migration meant to help.
func (ls *Lockstep) MaxDemand(i int) float64 {
	peak := 0.0
	for _, d := range ls.lanes[i].demand {
		if float64(d) > peak {
			peak = float64(d)
		}
	}
	return peak
}

// SetRecord adjusts lane i's trace capture for subsequent runs: record
// keeps the full series set, recordPower just the "total_power" series
// (implied by record). Series storage is allocated at most once per lane
// and reused across runs, so toggling recording between passes keeps
// re-stepping allocation-free.
func (ls *Lockstep) SetRecord(i int, record, recordPower bool) {
	ln := &ls.lanes[i]
	ln.record = record
	ln.recordPower = record || recordPower
}

// ensureSeries lazily builds (and then retains) the series and sets a
// lane's current record flags need.
func (ls *Lockstep) ensureSeries(ln *lane) {
	if !ln.recordPower {
		return
	}
	if ln.sPower == nil {
		ln.sPower = trace.NewSeriesCap("total_power", ls.nTicks)
	}
	if ln.record && ln.tsFull == nil {
		ln.sDemand = trace.NewSeriesCap("demand", ls.nTicks)
		ln.sDeliv = trace.NewSeriesCap("delivered", ls.nTicks)
		ln.sCap = trace.NewSeriesCap("cap", ls.nTicks)
		ln.sFanCmd = trace.NewSeriesCap("fan_cmd", ls.nTicks)
		ln.sFanAct = trace.NewSeriesCap("fan_actual", ls.nTicks)
		ln.sJunc = trace.NewSeriesCap("junction", ls.nTicks)
		ln.sMeas = trace.NewSeriesCap("measured", ls.nTicks)
		ts := trace.NewSet()
		for _, s := range []*trace.Series{ln.sDemand, ln.sDeliv, ln.sCap, ln.sFanCmd, ln.sFanAct, ln.sJunc, ln.sMeas} {
			ts.Add(s)
		}
		ts.Add(ln.sPower)
		ln.tsFull = ts
	}
	if !ln.record && ln.tsPower == nil {
		ts := trace.NewSet()
		ts.Add(ln.sPower)
		ln.tsPower = ts
	}
}

// reset returns a lane to its initial condition for a fresh run, mirroring
// the preamble of sim.Run exactly.
func (ls *Lockstep) reset(ln *lane) error {
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
	ls.ensureSeries(ln)
	if ln.recordPower {
		ln.sPower.Reset()
		if ln.record {
			for _, s := range []*trace.Series{ln.sDemand, ln.sDeliv, ln.sCap, ln.sFanCmd, ln.sFanAct, ln.sJunc, ln.sMeas} {
				s.Reset()
			}
			ln.result.Traces = ln.tsFull
		} else {
			ln.result.Traces = ln.tsPower
		}
	}
	return nil
}

// step advances one lane by one tick: policy decision, actuation, platform
// tick, metrics accumulation — the body of sim.Run's loop, with the
// workload query replaced by the precompiled schedule.
func (ls *Lockstep) step(ln *lane, k int) {
	t := units.Seconds(float64(k) * float64(ls.tick))
	demand := ln.demand[k]
	if ln.scale != 1 {
		demand = units.Utilization(float64(demand) * ln.scale)
		if demand > 1 {
			demand = 1
		}
	}
	cmd := ln.policy.Step(Observation{
		T:         t,
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
		m.TimeAboveLimit += ln.server.cfg.Tick
	}
	ln.sumJunc += float64(res.Junction)
	ln.sumFan += float64(res.FanActual)
	ln.sumDeliv += float64(res.Delivered)
	ln.sumDem += float64(res.Demand)

	if ln.recordPower {
		tf := float64(res.T)
		if ln.record {
			ln.sDemand.MustAppend(tf, float64(res.Demand))
			ln.sDeliv.MustAppend(tf, float64(res.Delivered))
			ln.sCap.MustAppend(tf, float64(res.Cap))
			ln.sFanCmd.MustAppend(tf, float64(res.FanCmd))
			ln.sFanAct.MustAppend(tf, float64(res.FanActual))
			ln.sJunc.MustAppend(tf, float64(res.Junction))
			ln.sMeas.MustAppend(tf, float64(res.Measured))
		}
		ln.sPower.MustAppend(tf, float64(res.TotalPower))
	}
}

// finalize folds a lane's accumulators into its metrics, exactly as
// sim.Run does after its loop.
func (ls *Lockstep) finalize(ln *lane) {
	m := &ln.result.Metrics
	m.Ticks = ls.nTicks
	if ls.nTicks > 0 {
		n := float64(ls.nTicks)
		m.ViolationFrac = float64(ln.violated) / n
		m.HWThrottleFrac = float64(ln.hwThrot) / n
		m.MeanJunction = units.Celsius(ln.sumJunc / n)
		m.MeanFanSpeed = units.RPM(ln.sumFan / n)
		m.MeanDelivered = units.Utilization(ln.sumDeliv / n)
		m.MeanDemand = units.Utilization(ln.sumDem / n)
	}
}

// runLane advances lane i through its whole horizon; every schedule runs
// lanes this way, one at a time per worker (see the file comment).
func (ls *Lockstep) runLane(i int) {
	ln := &ls.lanes[i]
	for k := 0; k < ls.nTicks; k++ {
		ls.step(ln, k)
	}
}

// runShared steps the lanes on the calling goroutine and workers-1
// helpers. Worker w runs its shard [next[w], end[w]) front to back, then
// takes other shards' remaining lanes from their backs, so a worker that
// starts late or is descheduled holds the pass up by at most the lane it
// is stepping, not by its whole shard. In a balanced pass nothing is
// taken, and shard-boundary neighbours still run at opposite ends of it.
// ParallelFor is not used: it hands lanes out in job order, giving two
// workers neighbours at once. A panic in any worker is re-raised on the
// caller once every worker has stopped.
func (ls *Lockstep) runShared(workers int) {
	n := len(ls.lanes)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards next, end and panicked
		next     = make([]int, workers)
		end      = make([]int, workers)
		panicked any
	)
	for w := range next {
		next[w], end[w] = w*n/workers, (w+1)*n/workers
	}
	claim := func(w int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next[w] < end[w] {
			next[w]++
			return next[w] - 1, true
		}
		for v := 1; v < workers; v++ {
			if s := (w + v) % workers; next[s] < end[s] {
				end[s]--
				return end[s], true
			}
		}
		return 0, false
	}
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		for i, ok := claim(w); ok; i, ok = claim(w) {
			ls.runLane(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Run executes one batch pass: every lane is reset (and warm-started) and
// run through the horizon, and the per-lane results are returned in job
// order. Lanes are sharded contiguously across the worker pool; results
// are bit-identical at any worker count, and to RunBatch on the same jobs.
//
// The returned results (and their trace sets) are owned by the Lockstep
// and remain valid until the next Run — callers that need to retain a pass
// must copy, the same aliasing contract as the multicore scratch buffers.
// A warm Run performs zero heap allocations at Workers <= 1.
func (ls *Lockstep) Run() ([]*Result, error) {
	for i := range ls.lanes {
		if err := ls.reset(&ls.lanes[i]); err != nil {
			return nil, &BatchError{Index: i, Name: ls.lanes[i].name, Err: err}
		}
	}
	n := len(ls.lanes)
	if n == 0 {
		return ls.results, nil
	}
	workers := ls.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range ls.lanes {
			ls.runLane(i)
		}
	} else {
		ls.runShared(workers)
	}
	for i := range ls.lanes {
		ls.finalize(&ls.lanes[i])
	}
	return ls.results, nil
}

// RunLockstep executes the jobs through a one-shot lockstep batch when
// they share one clock, falling back to RunBatch when they do not. Results
// are bit-identical either way; the lockstep path evaluates each distinct
// workload generator once instead of once per job per tick.
func RunLockstep(jobs []Job, opts BatchOptions) ([]*Result, error) {
	ls, err := NewLockstep(jobs, opts)
	if err != nil {
		var be *BatchError
		if errors.Is(err, ErrHeterogeneous) || errors.As(err, &be) {
			// Not eligible, or a per-job defect: degrade to RunBatch,
			// which honors the partial-results contract (healthy jobs
			// still produce results beside the *BatchError).
			return RunBatch(jobs, opts)
		}
		return nil, err
	}
	return ls.Run()
}

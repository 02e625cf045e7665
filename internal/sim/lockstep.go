package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file is the batch engine: a Lockstep advances N simulations
// (Table III's five solutions, a rack's nodes, a fault campaign's cells)
// from a single warm instance. Construction does all the expensive,
// pass-invariant work once — servers are built, workload generators are
// precompiled into per-tick demand schedules (deduplicated across jobs
// sharing a generator and clock, e.g. the five Table III solutions fed by
// one trace), and every result, metrics accumulator and recorded series is
// preallocated — so re-stepping the batch is allocation-free and skips the
// per-tick workload evaluation entirely. The fleet layer's recirculation
// fixed point re-runs the same rack with updated inlet temperatures every
// relaxation pass; holding one warm Lockstep per rack turns each pass into
// a pure re-step.
//
// Every lane keeps its own clock — the engine tick of its server and the
// tick count of its job's duration — so jobs with mixed ticks or durations
// batch together. Results are bit-identical to running each job alone
// through sim.Run on a fresh server: every lane owns its server and
// policy, performs exactly the floating-point operations sim.Run would, in
// the same order, and no lane reads another's state. Tests assert
// DeepEqual against sequential Run across batch sizes, worker counts and
// mixed clocks.
//
// Schedule: a pass steps the lanes it is given (RunLanes takes a lane
// mask; Run steps every lane), sharded contiguously over the workers, and
// each worker steps its lanes one at a time, each through its whole
// horizon (lane-major). Lanes are built one after another, so lanes close
// in build order share heap cache lines: on a 2-vCPU guest, two lanes of
// a warm 64-lane batch stepped at once ran 1.4-2.6x slower when adjacent
// and as fast as alone four or more apart. A pass therefore takes one
// worker per minLanesPerWorker stepped lanes (Workers is a cap), so every
// shard holds at least four lanes and workers in a balanced pass step
// lanes at least four apart. Smaller passes run on the calling goroutine:
// a helper goroutine starts tens of microseconds into a warm pass, often
// after the caller has stepped every lane of a small one. A worker that
// finishes its shard takes the rest of another from its far end (see
// runShared).

// minLanesPerWorker is the fewest stepped lanes a pass gives each worker.
const minLanesPerWorker = 4

// lane is one server's slot in the lockstep batch.
type lane struct {
	name   string
	server *PhysicalServer
	policy Policy
	warm   *WarmPoint
	// tick and nTicks are the lane's clock: its server's engine tick and
	// the number of ticks in its job's duration.
	tick   units.Seconds
	nTicks int
	demand []units.Utilization // precompiled schedule, one entry per tick
	// scale multiplies the precompiled schedule at step time (results
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

// Lockstep is a warm batch of simulations. Build one with NewLockstep,
// run it with Run, and re-step it after adjusting per-lane ambients or
// policies (SetAmbient, SetPolicy) — construction work is never repeated.
type Lockstep struct {
	workers int
	lanes   []lane
	results []*Result
	// stepped lists the lanes of the current pass in job order; its
	// storage is reused so a warm pass stays allocation-free.
	stepped []int
}

// NewLockstep builds a warm lockstep batch from the jobs: servers are
// constructed (one per job, via its factory), demand schedules are
// precompiled, and all result storage is preallocated. A per-job defect
// (nil factory, nil workload or policy, aliased policies, non-positive
// duration, a server its factory cannot build) is reported as a
// *BatchError naming the failing job, before any lane steps.
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
	}

	ls := &Lockstep{
		workers: opts.Workers,
		lanes:   make([]lane, len(jobs)),
		results: make([]*Result, len(jobs)),
		stepped: make([]int, 0, len(jobs)),
	}
	schedules := make(map[scheduleKey][]units.Utilization, len(jobs))
	for i, j := range jobs {
		server, err := j.Server()
		if err != nil {
			return nil, &BatchError{Index: i, Name: j.Name, Err: err}
		}
		ln := &ls.lanes[i]
		ln.name = j.Name
		ln.server = server
		ln.policy = j.Config.Policy
		ln.scale = 1
		ln.warm = j.Config.WarmStart
		ln.tick = server.cfg.Tick
		ln.nTicks = int(float64(j.Config.Duration) / float64(ln.tick))
		ln.record = j.Config.Record
		ln.recordPower = j.Config.Record || j.Config.RecordPower
		ln.demand = compileSchedule(schedules, scheduleKey{j.Config.Workload, ln.tick, ln.nTicks})
		ls.results[i] = &ln.result
	}
	return ls, nil
}

// scheduleKey identifies a compiled demand schedule: one generator sampled
// on one clock. Lanes sharing a generator but not a clock (a different
// tick or horizon) sample it at different instants and get their own
// schedules.
type scheduleKey struct {
	gen    workload.Generator
	tick   units.Seconds
	nTicks int
}

// compileSchedule evaluates the key's generator at every tick of its clock
// into a demand schedule, reusing an already-compiled schedule when the
// same generator instance drives several jobs on the same clock
// (generators are deterministic and read-only, so the samples are shared
// safely). Only comparable generator types participate in deduplication.
func compileSchedule(cache map[scheduleKey][]units.Utilization, key scheduleKey) []units.Utilization {
	cmp := reflect.TypeOf(key.gen).Comparable()
	if cmp {
		if s, ok := cache[key]; ok {
			return s
		}
	}
	s := make([]units.Utilization, key.nTicks)
	for k := range s {
		s[k] = key.gen.At(units.Seconds(float64(k) * float64(key.tick)))
	}
	if cmp {
		cache[key] = s
	}
	return s
}

// Len returns the number of lanes in the batch.
func (ls *Lockstep) Len() int { return len(ls.lanes) }

// Ticks returns the longest lane's tick count of one run — every lane's
// count when the jobs share one clock.
func (ls *Lockstep) Ticks() int {
	n := 0
	for i := range ls.lanes {
		n = max(n, ls.lanes[i].nTicks)
	}
	return n
}

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
	if ln.recordPower {
		ln.result.Traces = ln.recording()
		for i := range ln.result.Traces {
			ln.result.Traces[i].Reset()
		}
	}
	return nil
}

// step advances one lane by one tick: policy decision, actuation, platform
// tick, metrics accumulation — the body of sim.Run's loop, with the
// workload query replaced by the precompiled schedule.
func (ls *Lockstep) step(ln *lane, k int) {
	t := units.Seconds(float64(k) * float64(ln.tick))
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

	if ln.result.Traces != nil {
		record(ln.result.Traces, res)
	}
}

// finalize folds a lane's accumulators into its metrics, exactly as
// sim.Run does after its loop.
func (ls *Lockstep) finalize(ln *lane) {
	shareTime(ln.result.Traces)
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

// runLane advances lane i through its whole horizon; every schedule runs
// lanes this way, one at a time per worker (see the file comment).
func (ls *Lockstep) runLane(i int) {
	ln := &ls.lanes[i]
	for k := 0; k < ln.nTicks; k++ {
		ls.step(ln, k)
	}
}

// runShared steps the pass's lanes on the calling goroutine and workers-1
// helpers. Worker w runs its shard of the stepped list, positions
// [next[w], end[w]), front to back, then takes other shards' remaining
// lanes from their backs, so a worker that starts late or is descheduled
// holds the pass up by at most the lane it is stepping, not by its whole
// shard. In a balanced pass nothing is taken, and shard-boundary
// neighbours still run at opposite ends of it. ParallelFor is not used: it
// hands lanes out in job order, giving two workers neighbours at once. A
// panic in any worker is re-raised on the caller once every worker has
// stopped.
func (ls *Lockstep) runShared(workers int) {
	n := len(ls.stepped)
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
			return ls.stepped[next[w]-1], true
		}
		for v := 1; v < workers; v++ {
			if s := (w + v) % workers; next[s] < end[s] {
				end[s]--
				return ls.stepped[end[s]], true
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

// Run executes one batch pass over every lane; see RunLanes.
func (ls *Lockstep) Run() ([]*Result, error) { return ls.RunLanes(nil) }

// RunLanes executes one batch pass over the lanes active marks (nil marks
// every lane): each is reset (and warm-started) and run through its
// horizon, and the per-lane results are returned in job order. A
// masked-out lane is neither reset nor stepped; its result and recorded
// series stay those of its last run. The stepped lanes are sharded
// contiguously across min(Workers, stepped/minLanesPerWorker) workers, at
// least one; results are bit-identical at any worker count, and to running
// each job alone through sim.Run.
//
// The returned results (and their trace sets) are owned by the Lockstep
// and remain valid until the next pass that steps their lane — callers
// that need to retain a pass must copy, or never step the lane again. The
// scenario runners take the second way: each builds its own Lockstep per
// run and stores the final pass's series in the outcome as-is, without a
// copy, so nothing may step that Lockstep once the outcome exists. A warm
// pass performs zero heap allocations when it runs on one worker.
func (ls *Lockstep) RunLanes(active []bool) ([]*Result, error) {
	if active != nil && len(active) != len(ls.lanes) {
		return nil, fmt.Errorf("sim: lockstep lane mask has %d entries for %d lanes", len(active), len(ls.lanes))
	}
	ls.stepped = ls.stepped[:0]
	for i := range ls.lanes {
		if active != nil && !active[i] {
			continue
		}
		if err := ls.reset(&ls.lanes[i]); err != nil {
			return nil, &BatchError{Index: i, Name: ls.lanes[i].name, Err: err}
		}
		ls.stepped = append(ls.stepped, i)
	}
	workers := ls.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(ls.stepped)/minLanesPerWorker); workers <= 1 {
		for _, i := range ls.stepped {
			ls.runLane(i)
		}
	} else {
		ls.runShared(workers)
	}
	for _, i := range ls.stepped {
		ls.finalize(&ls.lanes[i])
	}
	return ls.results, nil
}

package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

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
// through sim.Run on a fresh server: Run steps one lane through the same
// reset, step and finish (engine.go), a lane's schedule holds the samples
// Run takes from the generator tick by tick, every lane owns its server
// and policy, and no lane reads another's state. Tests assert DeepEqual
// against sequential Run across batch sizes, worker counts and mixed
// clocks.
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
		if err := j.Config.check(); err != nil {
			return nil, &BatchError{Index: i, Name: j.Name, Err: err}
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
		ls.lanes[i] = newLane(j.Name, server, j.Config)
		ln := &ls.lanes[i]
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
// keeps the full series set, and the "total_power" series is kept either
// way. Series storage is allocated at most once per lane and reused
// across runs, so toggling recording between passes keeps re-stepping
// allocation-free.
func (ls *Lockstep) SetRecord(i int, record bool) {
	ln := &ls.lanes[i]
	ln.record = record
	ln.recordPower = true
}

// runLane advances lane i through its whole horizon on its scaled
// schedule; every pass runs lanes this way, one at a time per worker (see
// the file comment).
func (ls *Lockstep) runLane(i int) {
	ln := &ls.lanes[i]
	for k, demand := range ln.demand {
		if ln.scale != 1 {
			demand = units.Utilization(float64(demand) * ln.scale)
			if demand > 1 {
				demand = 1
			}
		}
		ln.step(k, demand)
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
		if err := ls.lanes[i].reset(); err != nil {
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
		ls.lanes[i].finish()
	}
	return ls.results, nil
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/workload"
)

// feedbackPolicy is a stateful closed-loop test policy: it integrates the
// measured temperature error toward a set-point and throttles on
// violations, exercising every Observation field so a lockstep/batch
// divergence anywhere in the loop shows up in the results.
type feedbackPolicy struct {
	ref  units.Celsius
	gain float64
	acc  float64
	cap  units.Utilization
}

func (p *feedbackPolicy) Name() string { return "feedback" }

func (p *feedbackPolicy) Step(obs Observation) Command {
	p.acc += float64(obs.Measured - p.ref)
	fan := units.RPM(3000 + p.gain*p.acc)
	if obs.Violated {
		p.cap -= 0.01
	} else if obs.Delivered >= obs.Demand {
		p.cap += 0.02
	}
	p.cap = units.ClampUtil(p.cap)
	if p.cap < 0.4 {
		p.cap = 0.4
	}
	return Command{Fan: fan, Cap: p.cap}
}

func (p *feedbackPolicy) Reset() { p.acc = 0; p.cap = 1 }

// lockstepJobs builds n same-clock jobs over a realistic workload mix
// (noisy square, Markov bursts, spiky batch, PRBS) with per-job seeds,
// warm starts on the odd lanes and trace recording on a couple of lanes.
func lockstepJobs(t testing.TB, n int) []Job {
	t.Helper()
	cfg := Default()
	cfg.Ambient = 30
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		var gen workload.Generator
		var err error
		switch i % 4 {
		case 0:
			gen, err = workload.NewNoisy(workload.PaperSquare(400), 0.04, cfg.Tick, int64(i+1))
		case 1:
			gen = workload.Markov{IdleU: 0.15, BusyU: 0.85, Dwell: 45,
				PIdleToBusy: 0.25, PBusyToIdle: 0.2, Seed: int64(i + 1)}
		case 2:
			var noisy *workload.Noisy
			noisy, err = workload.NewNoisy(workload.Constant{U: 0.65}, 0.05, cfg.Tick, int64(i+1))
			if err == nil {
				gen, err = workload.NewSpiky(noisy, workload.PeriodicSpikes(100, 300, 30, 1.0, 3))
			}
		default:
			gen = workload.PRBS{Low: 0.2, High: 0.8, Dwell: 90, Seed: int64(i + 1)}
		}
		if err != nil {
			t.Fatal(err)
		}
		rc := RunConfig{
			Duration: 600,
			Workload: gen,
			Policy:   &feedbackPolicy{ref: 70, gain: 15, cap: 1},
		}
		if i%2 == 1 {
			rc.WarmStart = &WarmPoint{Util: 0.2, Fan: 1500}
		}
		if i%5 == 2 {
			rc.Record = true
		} else if i%3 == 1 {
			rc.RecordPower = true
		}
		jobs[i] = Job{Name: fmt.Sprintf("lane-%d", i), Server: Factory(cfg), Config: rc}
	}
	return jobs
}

// TestLockstepMatchesRunBatch: the lockstep runner must reproduce
// RunBatch's results bit for bit — metrics and traces — across batch
// sizes and worker counts.
func TestLockstepMatchesRunBatch(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		want, err := RunBatch(lockstepJobs(t, n), BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 0} {
			got, err := RunLockstep(lockstepJobs(t, n), BatchOptions{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range want {
				if got[i].Metrics != want[i].Metrics {
					t.Fatalf("n=%d workers=%d lane %d: lockstep metrics %+v != batch %+v",
						n, workers, i, got[i].Metrics, want[i].Metrics)
				}
				if !reflect.DeepEqual(got[i].Traces, want[i].Traces) {
					t.Fatalf("n=%d workers=%d lane %d: lockstep traces differ from batch", n, workers, i)
				}
			}
		}
	}
}

// orderPolicy stamps its lane's first and last Step from a counter shared
// by every lane, recording when the lane was stepped relative to the
// others.
type orderPolicy struct {
	clock       *atomic.Int64
	first, last int64
}

func (p *orderPolicy) Name() string { return "order" }

func (p *orderPolicy) Step(Observation) Command {
	n := p.clock.Add(1)
	if p.first == 0 {
		p.first = n
	}
	p.last = n
	return Command{Fan: 3000, Cap: 1}
}

func (p *orderPolicy) Reset() { p.first, p.last = 0, 0 }

// TestLockstepStepsLaneMajor pins the stepping order: a worker runs each
// lane it takes through its whole horizon before it takes another, so no
// more lanes are ever in progress than there are workers (two workers
// never keep a row of neighbouring lanes, which share cache lines, in
// flight together), and a single worker steps the lanes in job order.
func TestLockstepStepsLaneMajor(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 2} {
		var clock atomic.Int64
		jobs := lockstepJobs(t, n)
		policies := make([]*orderPolicy, n)
		for i := range jobs {
			policies[i] = &orderPolicy{clock: &clock}
			jobs[i].Config.Policy = policies[i]
		}
		ls, err := NewLockstep(jobs, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Run(); err != nil {
			t.Fatal(err)
		}
		// The most lanes in progress at once is reached at some lane's
		// first step.
		for i, p := range policies {
			open := 0
			for _, q := range policies {
				if q.first <= p.first && p.first <= q.last {
					open++
				}
			}
			if open > workers {
				t.Errorf("workers=%d: %d lanes in progress when lane %d started (step %d)", workers, open, i, p.first)
			}
		}
		if workers > 1 {
			continue
		}
		for i := 0; i+1 < n; i++ {
			if a, b := policies[i], policies[i+1]; a.last >= b.first {
				t.Errorf("workers=1: lane %d started (step %d) before lane %d finished (step %d)", i+1, b.first, i, a.last)
			}
		}
	}
}

// stallPolicy holds its lane's first step until every other lane has
// finished: a stand-in for a worker descheduled in the middle of a pass.
type stallPolicy struct {
	others   <-chan struct{}
	timedOut bool
}

func (p *stallPolicy) Name() string { return "stall" }

func (p *stallPolicy) Step(obs Observation) Command {
	if obs.T == 0 {
		select {
		case <-p.others:
		case <-time.After(10 * time.Second):
			p.timedOut = true
		}
	}
	return Command{Fan: 3000, Cap: 1}
}

func (p *stallPolicy) Reset() {}

// finishPolicy closes done when its lane is the last of a group to take
// its final step.
type finishPolicy struct {
	ticks, steps int
	left         *atomic.Int64
	done         chan struct{}
}

func (p *finishPolicy) Name() string { return "finish" }

func (p *finishPolicy) Step(Observation) Command {
	p.steps++
	if p.steps == p.ticks && p.left.Add(-1) == 0 {
		close(p.done)
	}
	return Command{Fan: 3000, Cap: 1}
}

func (p *finishPolicy) Reset() { p.steps = 0 }

// TestLockstepWorkersTakeOverStalledShard: a worker stuck on one lane
// must not hold up the rest of its shard. Lane 0 waits until every other
// lane has finished, so the pass only completes if the second worker
// takes lanes 1-3 from the first worker's shard.
func TestLockstepWorkersTakeOverStalledShard(t *testing.T) {
	const n = 8
	ls, err := NewLockstep(lockstepJobs(t, n), BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var left atomic.Int64
	left.Store(n - 1)
	done := make(chan struct{})
	stall := &stallPolicy{others: done}
	if err := ls.SetPolicy(0, stall); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := ls.SetPolicy(i, &finishPolicy{ticks: ls.Ticks(), left: &left, done: done}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ls.Run(); err != nil {
		t.Fatal(err)
	}
	if stall.timedOut {
		t.Fatal("lanes 1-3 waited behind the stalled lane 0 instead of moving to the other worker")
	}
}

// TestLockstepRepanicsWorkerPanic: a policy panicking in the calling
// worker's shard (lane 0) or a helper's (lane n-1) surfaces on the caller
// of Run, after every worker has stopped.
func TestLockstepRepanicsWorkerPanic(t *testing.T) {
	const n = 8
	ls, err := NewLockstep(lockstepJobs(t, n), BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, n - 1} {
		if err := ls.SetPolicy(i, panicPolicy{}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != "policy panic" {
					t.Errorf("lane %d: recovered %v, want the policy's panic", i, r)
				}
			}()
			ls.Run()
		}()
		if err := ls.SetPolicy(i, &feedbackPolicy{ref: 70, gain: 15, cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

type panicPolicy struct{}

func (panicPolicy) Name() string             { return "panic" }
func (panicPolicy) Step(Observation) Command { panic("policy panic") }
func (panicPolicy) Reset()                   {}

// TestLockstepWarmRerunIdentical: re-stepping a warm instance must
// reproduce its first pass exactly — the property the fleet fixed point
// relies on when it reuses one rack instance across relaxation passes.
func TestLockstepWarmRerunIdentical(t *testing.T) {
	ls, err := NewLockstep(lockstepJobs(t, 5), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Results alias lockstep-owned storage: snapshot pass one.
	snap := make([]Metrics, len(first))
	for i, r := range first {
		snap[i] = r.Metrics
	}
	for rep := 0; rep < 3; rep++ {
		again, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range again {
			if r.Metrics != snap[i] {
				t.Fatalf("rerun %d lane %d: metrics drifted: %+v != %+v", rep, i, r.Metrics, snap[i])
			}
		}
	}
}

// TestLockstepSetAmbientMatchesRebuild: re-homing a warm lane at a new
// inlet and re-running must equal building the job at that inlet from
// scratch — the fleet relaxation pass in miniature.
func TestLockstepSetAmbientMatchesRebuild(t *testing.T) {
	const n = 4
	ls, err := NewLockstep(lockstepJobs(t, n), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Run(); err != nil {
		t.Fatal(err)
	}
	inlets := []units.Celsius{31, 33.5, 36, 30.25}
	for i, inlet := range inlets {
		if err := ls.SetAmbient(i, inlet); err != nil {
			t.Fatal(err)
		}
		if err := ls.SetPolicy(i, &feedbackPolicy{ref: 70, gain: 15, cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}

	jobs := lockstepJobs(t, n)
	for i := range jobs {
		cfg := Default()
		cfg.Ambient = inlets[i]
		jobs[i].Server = Factory(cfg)
	}
	want, err := RunBatch(jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Metrics != want[i].Metrics {
			t.Fatalf("lane %d: re-homed metrics %+v != rebuilt %+v", i, got[i].Metrics, want[i].Metrics)
		}
	}
}

// TestLockstepSetAmbientRejectsInvalid: an inlet at or above the thermal
// limit must error exactly as server construction would.
func TestLockstepSetAmbientRejectsInvalid(t *testing.T) {
	ls, err := NewLockstep(lockstepJobs(t, 2), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetAmbient(0, 95); err == nil {
		t.Fatal("inlet above TLimit accepted")
	}
}

// TestLockstepSharedScheduleDedupe: jobs driven by the same generator
// instance share one precompiled schedule and still match RunBatch.
func TestLockstepSharedScheduleDedupe(t *testing.T) {
	cfg := Default()
	cfg.Ambient = 30
	gen, err := workload.NewNoisy(workload.PaperSquare(400), 0.04, cfg.Tick, 9)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Job {
		jobs := make([]Job, 3)
		for i := range jobs {
			jobs[i] = Job{
				Name:   fmt.Sprintf("shared-%d", i),
				Server: Factory(cfg),
				Config: RunConfig{
					Duration: 500,
					Workload: gen, // same instance across all jobs
					Policy:   &feedbackPolicy{ref: 68 + units.Celsius(i), gain: 12, cap: 1},
				},
			}
		}
		return jobs
	}
	want, err := RunBatch(mk(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLockstep(mk(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Metrics != want[i].Metrics {
			t.Fatalf("lane %d: shared-generator lockstep differs from batch", i)
		}
	}
}

// TestLockstepHeterogeneousFallsBack: mixed durations or ticks are not
// lockstep-eligible; NewLockstep says so and RunLockstep transparently
// degrades to RunBatch with identical results.
func TestLockstepHeterogeneousFallsBack(t *testing.T) {
	mixed := func() []Job {
		jobs := lockstepJobs(t, 3)
		jobs[2].Config.Duration = 450
		return jobs
	}
	if _, err := NewLockstep(mixed(), BatchOptions{}); !errors.Is(err, ErrHeterogeneous) {
		t.Fatalf("mixed durations: err = %v, want ErrHeterogeneous", err)
	}
	want, err := RunBatch(mixed(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLockstep(mixed(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Metrics != want[i].Metrics {
			t.Fatalf("lane %d: fallback results differ from RunBatch", i)
		}
	}

	// Mixed engine ticks (only discoverable after construction).
	ticky := lockstepJobs(t, 2)
	cfg2 := Default()
	cfg2.Tick = 2
	ticky[1].Server = Factory(cfg2)
	if _, err := NewLockstep(ticky, BatchOptions{}); !errors.Is(err, ErrHeterogeneous) {
		t.Fatalf("mixed ticks: err = %v, want ErrHeterogeneous", err)
	}
}

// TestLockstepRejectsSharedPolicy mirrors RunBatch's aliasing guard at
// construction and through SetPolicy.
func TestLockstepRejectsSharedPolicy(t *testing.T) {
	jobs := lockstepJobs(t, 2)
	shared := &feedbackPolicy{ref: 70, gain: 15, cap: 1}
	jobs[0].Config.Policy = shared
	jobs[1].Config.Policy = shared
	var be *BatchError
	if _, err := NewLockstep(jobs, BatchOptions{}); !errors.As(err, &be) {
		t.Fatalf("shared policy accepted: %v", err)
	}

	ls, err := NewLockstep(lockstepJobs(t, 2), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetPolicy(0, ls.lanes[1].policy); err == nil {
		t.Fatal("SetPolicy accepted a policy aliased with another lane")
	}
	if err := ls.SetPolicy(0, nil); err == nil {
		t.Fatal("SetPolicy accepted nil")
	}
}

// TestLockstepConstructionErrors: per-job defects surface as *BatchError
// with the failing index, like RunBatch.
func TestLockstepConstructionErrors(t *testing.T) {
	for name, mutate := range map[string]func([]Job){
		"nil-factory":  func(js []Job) { js[1].Server = nil },
		"nil-workload": func(js []Job) { js[1].Config.Workload = nil },
		"nil-policy":   func(js []Job) { js[1].Config.Policy = nil },
		"bad-duration": func(js []Job) { js[1].Config.Duration = -1 },
	} {
		jobs := lockstepJobs(t, 3)
		mutate(jobs)
		var be *BatchError
		if _, err := NewLockstep(jobs, BatchOptions{}); !errors.As(err, &be) {
			t.Errorf("%s: err = %v, want *BatchError", name, err)
		} else if be.Index != 1 {
			t.Errorf("%s: error blames job %d, want 1", name, be.Index)
		}
	}
}

// TestRunLockstepPartialResultsOnJobError: for per-job defects the
// drop-in entry point degrades to RunBatch and preserves its contract —
// healthy jobs still produce results beside the *BatchError.
func TestRunLockstepPartialResultsOnJobError(t *testing.T) {
	jobs := lockstepJobs(t, 3)
	jobs[1].Config.Duration = -1
	results, err := RunLockstep(jobs, BatchOptions{Workers: 1})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("defective job accepted: %v", err)
	}
	if be.Index != 1 {
		t.Errorf("error blames job %d, want 1", be.Index)
	}
	if len(results) != 3 || results[0] == nil || results[2] == nil {
		t.Error("healthy jobs lost their results on the error path")
	}
}

// TestLockstepEmpty: an empty batch runs to an empty result set.
func TestLockstepEmpty(t *testing.T) {
	ls, err := NewLockstep(nil, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty lockstep returned %d results", len(results))
	}
}

// TestLockstepDemandScale: a unit scale is bit-transparent, a fractional
// scale multiplies the effective demand (clamped at full load), and the
// precompiled schedule itself — possibly shared between lanes — is never
// mutated, so scaling one lane cannot leak into another.
func TestLockstepDemandScale(t *testing.T) {
	gen := workload.Constant{U: 0.6}
	mkJobs := func() []Job {
		cfg := Default()
		cfg.Ambient = 30
		jobs := make([]Job, 2)
		for i := range jobs {
			jobs[i] = Job{
				Name:   fmt.Sprintf("n%d", i),
				Server: Factory(cfg),
				Config: RunConfig{
					Duration: 300,
					Workload: gen, // shared generator: one compiled schedule
					Policy:   &feedbackPolicy{ref: 70, gain: 15, cap: 1},
				},
			}
		}
		return jobs
	}

	base, err := RunLockstep(mkJobs(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ls, err := NewLockstep(mkJobs(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.SetDemandScale(0, 1); err != nil {
		t.Fatal(err)
	}
	unit, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range unit {
		if !reflect.DeepEqual(unit[i].Metrics, base[i].Metrics) {
			t.Errorf("lane %d: unit scale changed the run", i)
		}
	}

	// Scale lane 0 down: its mean demand drops by the factor; lane 1,
	// sharing the same compiled schedule, is untouched.
	if err := ls.SetDemandScale(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := ls.DemandScale(0); got != 0.5 {
		t.Fatalf("DemandScale = %v", got)
	}
	scaled, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(scaled[0].Metrics.MeanDemand), 0.3; !approxEq(got, want, 1e-12) {
		t.Errorf("scaled lane mean demand %v, want %v", got, want)
	}
	if !reflect.DeepEqual(scaled[1].Metrics, base[1].Metrics) {
		t.Error("scaling lane 0 leaked into lane 1")
	}
	if got := ls.MeanDemand(0); !approxEq(got, 0.6, 1e-12) {
		t.Errorf("MeanDemand reports the scaled schedule: %v", got)
	}

	// Scaling past full load clamps at 1.
	if err := ls.SetDemandScale(0, 2.5); err != nil {
		t.Fatal(err)
	}
	clamped, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(clamped[0].Metrics.MeanDemand); got != 1 {
		t.Errorf("overdriven lane mean demand %v, want clamp at 1", got)
	}

	// Restore to 1: bit-identical to the unscaled run again.
	if err := ls.SetDemandScale(0, 1); err != nil {
		t.Fatal(err)
	}
	back, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if !reflect.DeepEqual(back[i].Metrics, base[i].Metrics) {
			t.Errorf("lane %d: scale restore not bit-transparent", i)
		}
	}

	// Degenerate scales are rejected.
	if err := ls.SetDemandScale(0, -0.1); err == nil {
		t.Error("negative scale accepted")
	}
	if err := ls.SetDemandScale(0, math.Inf(1)); err == nil {
		t.Error("non-finite scale accepted")
	}
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	return d <= tol && -d <= tol
}

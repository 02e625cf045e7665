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
// violations, exercising every Observation field so a lockstep/Run
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

// runAlone is the reference the lockstep engine must reproduce: each job
// run alone through Run on a fresh server from its factory.
func runAlone(t testing.TB, jobs []Job) []*Result {
	t.Helper()
	results := make([]*Result, len(jobs))
	for i, j := range jobs {
		server, err := j.Server()
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = Run(server, j.Config); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// runLockstep runs the jobs as one lockstep batch.
func runLockstep(t testing.TB, jobs []Job, workers int) []*Result {
	t.Helper()
	results, err := runBatch(jobs, BatchOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// assertSameResults requires bit-identical metrics and traces lane by lane.
func assertSameResults(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	for i := range want {
		if got[i].Metrics != want[i].Metrics {
			t.Fatalf("%s lane %d: lockstep metrics %+v != Run %+v", label, i, got[i].Metrics, want[i].Metrics)
		}
		if !reflect.DeepEqual(got[i].Traces, want[i].Traces) {
			t.Fatalf("%s lane %d: lockstep traces differ from Run", label, i)
		}
	}
}

// TestLockstepMatchesRunBatch: the lockstep engine must reproduce the
// batch run one job at a time through Run, bit for bit — metrics and
// traces — across batch sizes and worker counts. A pass takes one worker
// per four lanes, so 8 lanes split over two workers and 16 over four.
func TestLockstepMatchesRunBatch(t *testing.T) {
	for _, n := range []int{1, 3, 8, 16} {
		want := runAlone(t, lockstepJobs(t, n))
		for _, workers := range []int{1, 2, 4, 0} {
			got := runLockstep(t, lockstepJobs(t, n), workers)
			assertSameResults(t, fmt.Sprintf("n=%d workers=%d", n, workers), got, want)
		}
	}
}

// TestLockstepMixedClocks: every lane runs on its own clock. Jobs with
// mixed durations and engine ticks batch together, and one generator
// instance shared across clocks is sampled on each lane's own instants
// (the schedule cache must not hand one clock's samples to another).
func TestLockstepMixedClocks(t *testing.T) {
	mixed := func() []Job {
		jobs := lockstepJobs(t, 5)
		tick2 := Default()
		tick2.Ambient = 30
		tick2.Tick = 2
		// Lanes 1, 3 and 4 share lane 0's generator on other clocks: lane 1
		// over a shorter horizon, lane 3 every 2 s (as many ticks as lane
		// 1), lane 4 over a longer horizon.
		shared := jobs[0].Config.Workload
		jobs[1].Config.Workload = shared
		jobs[1].Config.Duration = 300
		jobs[3].Server = Factory(tick2)
		jobs[3].Config.Workload = shared
		jobs[3].Config.Record = true
		jobs[4].Config.Workload = shared
		jobs[4].Config.Duration = 900
		return jobs
	}
	want := runAlone(t, mixed())
	for _, workers := range []int{1, 2} {
		ls, err := NewLockstep(mixed(), BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := ls.Ticks(); got != 900 {
			t.Errorf("workers=%d: Ticks() = %d, want the longest lane's 900", workers, got)
		}
		got, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("workers=%d", workers), got, want)
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
// flight together), and a single worker steps the lanes in job order. A
// pass gives each worker at least four lanes, so at Workers 2 a 7-lane
// pass runs on one.
func TestLockstepStepsLaneMajor(t *testing.T) {
	for _, tc := range []struct{ n, workers, open int }{
		{8, 1, 1},
		{8, 2, 2},
		{7, 2, 1},
	} {
		var clock atomic.Int64
		jobs := lockstepJobs(t, tc.n)
		policies := make([]*orderPolicy, tc.n)
		for i := range jobs {
			policies[i] = &orderPolicy{clock: &clock}
			jobs[i].Config.Policy = policies[i]
		}
		ls, err := NewLockstep(jobs, BatchOptions{Workers: tc.workers})
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
			if open > tc.open {
				t.Errorf("n=%d workers=%d: %d lanes in progress when lane %d started (step %d)", tc.n, tc.workers, open, i, p.first)
			}
		}
		if tc.open > 1 {
			continue
		}
		for i := 0; i+1 < tc.n; i++ {
			if a, b := policies[i], policies[i+1]; a.last >= b.first {
				t.Errorf("n=%d workers=%d: lane %d started (step %d) before lane %d finished (step %d)", tc.n, tc.workers, i+1, b.first, i, a.last)
			}
		}
	}
}

// untouchedPolicy fails the test from any Step or Reset: it marks a lane a
// pass must leave alone.
type untouchedPolicy struct{}

func (untouchedPolicy) Name() string             { return "untouched" }
func (untouchedPolicy) Step(Observation) Command { panic("masked-out lane stepped") }
func (untouchedPolicy) Reset()                   { panic("masked-out lane reset") }

// TestLockstepRunLanesKeepsMaskedLanes: RunLanes steps only the lanes its
// mask marks. A masked-out lane is neither reset nor stepped and keeps
// the result and series of its last run, while the stepped lanes match a
// rebuild at their new inlets; an all-false mask steps nothing, and a
// mask of the wrong length is refused.
func TestLockstepRunLanesKeepsMaskedLanes(t *testing.T) {
	const n = 5
	ls, err := NewLockstep(lockstepJobs(t, n), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Run(); err != nil {
		t.Fatal(err)
	}
	active := []bool{false, true, false, true, false}
	inlets := []units.Celsius{0, 33.5, 0, 30.25, 0}
	for i := range active {
		if !active[i] {
			if err := ls.SetPolicy(i, untouchedPolicy{}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := ls.SetAmbient(i, inlets[i]); err != nil {
			t.Fatal(err)
		}
		if err := ls.SetPolicy(i, &feedbackPolicy{ref: 70, gain: 15, cap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ls.RunLanes(active)
	if err != nil {
		t.Fatal(err)
	}
	want := runAlone(t, lockstepJobs(t, n))
	moved := lockstepJobs(t, n)
	for i := range moved {
		if active[i] {
			cfg := Default()
			cfg.Ambient = inlets[i]
			moved[i].Server = Factory(cfg)
		}
	}
	rebuilt := runAlone(t, moved)
	for i := range active {
		if active[i] {
			want[i] = rebuilt[i]
		}
	}
	assertSameResults(t, "masked pass", got, want)

	again, err := ls.RunLanes(make([]bool, n))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "empty mask", again, want)
	if _, err := ls.RunLanes(make([]bool, n-1)); err == nil {
		t.Error("RunLanes accepted a mask of the wrong length")
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

// TestLockstepSetRecordTakesOverPowerSeries: a lane that recorded power
// only and is then switched to full recording builds its full set around
// the power series it already has, on that series' time axis, records
// exactly what Run records, and returns to power-only recording in the
// same buffers. Once the full set exists, toggling allocates nothing.
func TestLockstepSetRecordTakesOverPowerSeries(t *testing.T) {
	jobs := lockstepJobs(t, 4)
	for i := range jobs {
		jobs[i].Config.Record, jobs[i].Config.RecordPower = false, true
	}
	ls, err := NewLockstep(jobs, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	power := &res[0].Traces[0].V[0]

	want := lockstepJobs(t, 4)
	for i := range want {
		want[i].Config.Record, want[i].Config.RecordPower = i == 0, i != 0
	}
	ls.SetRecord(0, true, false)
	if res, err = ls.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "full", res, runAlone(t, want))
	if got := res[0].Traces; len(got) != len(seriesNames) || &got[powerSeries].V[0] != power {
		t.Fatal("the full recording did not take the power series over")
	}
	assertOneTimeAxis(t, "full", res[0].Traces, 600)

	want[0].Config.Record, want[0].Config.RecordPower = false, true
	ls.SetRecord(0, false, true)
	if res, err = ls.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "power again", res, runAlone(t, want))
	if &res[0].Traces[0].V[0] != power {
		t.Fatal("power-only recording left the lane's power series")
	}

	full := false
	if allocs := testing.AllocsPerRun(3, func() {
		full = !full
		ls.SetRecord(0, full, true)
		if res, err = ls.Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm record toggle allocates %.2f objects/op, want 0", allocs)
	}
	ls.SetRecord(0, true, false)
	if res, err = ls.Run(); err != nil {
		t.Fatal(err)
	}
	assertOneTimeAxis(t, "full again", res[0].Traces, 600)
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
	want := runAlone(t, jobs)
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
// instance share one precompiled schedule and still match sequential Run.
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
	assertSameResults(t, "shared generator", runLockstep(t, mk(), 1), runAlone(t, mk()))
}

// TestLockstepRejectsSharedPolicy: a pointer policy aliased by two jobs
// is refused at construction and through SetPolicy.
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

// TestLockstepConstructionErrors: per-job defects, including a server
// its factory cannot build, surface as *BatchError with the failing index.
func TestLockstepConstructionErrors(t *testing.T) {
	for name, mutate := range map[string]func([]Job){
		"nil-factory":  func(js []Job) { js[1].Server = nil },
		"nil-workload": func(js []Job) { js[1].Config.Workload = nil },
		"nil-policy":   func(js []Job) { js[1].Config.Policy = nil },
		"bad-duration": func(js []Job) { js[1].Config.Duration = -1 },
		"bad-server":   func(js []Job) { js[1].Server = Factory(Config{}) },
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

	base := runLockstep(t, mkJobs(), 1)

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
	if got := ls.lanes[0].scale; got != 0.5 {
		t.Fatalf("lane scale = %v", got)
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

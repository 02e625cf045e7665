// Micro-benchmarks for the simulation hot paths. Unlike bench_test.go
// (which reports experiment *results*), these measure engine *speed* and
// allocation behavior: thermal.Network.Step and the per-tick server loop
// must be zero-allocation after warm-up. Run with
//
//	go test -bench 'NetworkStep|ServerTick|EngineThroughput|Table3Serial' -benchmem
package main

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/multicore"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// buildNetwork constructs an n-node star network (n-1 loaded nodes around
// one ambient-coupled sink) shaped like the multicore scenarios.
func buildNetwork(b testing.TB, n int) *thermal.Network {
	b.Helper()
	net, err := thermal.NewNetwork(n, 25)
	if err != nil {
		b.Fatal(err)
	}
	sink := n - 1
	if err := net.SetCapacitance(sink, 500); err != nil {
		b.Fatal(err)
	}
	if err := net.ConnectAmbient(sink, 0.05); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < sink; i++ {
		if err := net.SetCapacitance(i, 50); err != nil {
			b.Fatal(err)
		}
		if err := net.Connect(i, sink, 0.5); err != nil {
			b.Fatal(err)
		}
		net.SetLoad(i, 10)
	}
	return net
}

// BenchmarkNetworkStep measures the RK4 integrator at the two sizes the
// repo exercises: the two-node server shape and a 16-node multicore
// package. Zero allocs/op is the acceptance bar — the CSR neighbor list,
// cached substep count, and preallocated scratch remove the per-call
// make([]float64) and O(n²) conductance rescan.
func BenchmarkNetworkStep(b *testing.B) {
	for _, n := range []int{2, 16} {
		b.Run(unitName("nodes", float64(n), ""), func(b *testing.B) {
			net := buildNetwork(b, n)
			if err := net.Step(1); err != nil { // compile + warm caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.Step(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkStepRetune measures Step with a per-call ConnectAmbient
// retune, the multicore access pattern (fan speed changes every tick): the
// O(n) time-constant refresh must not reintroduce allocations.
func BenchmarkNetworkStepRetune(b *testing.B) {
	net := buildNetwork(b, 16)
	law := thermal.TableIHeatSinkLaw()
	if err := net.Step(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := units.RPM(2000 + (i%2)*3000)
		if err := net.ConnectAmbient(15, law.Resistance(v)); err != nil {
			b.Fatal(err)
		}
		if err := net.Step(1); err != nil {
			b.Fatal(err)
		}
	}
}

// tickHarness is one warm Table III-shaped closed loop: full DTM stack,
// noisy spiky workload, warm-started platform.
type tickHarness struct {
	server *sim.PhysicalServer
	policy sim.Policy
	gen    workload.Generator
	tick   units.Seconds
	prev   sim.TickResult
	k      int
}

func newTickHarness(b testing.TB) *tickHarness { return newTickHarnessSensor(b, nil) }

// newTickHarnessSensor builds the harness with an optional sensor-chain
// replacement applied before the warm start (the fault-chain benchmark).
func newTickHarnessSensor(b testing.TB, replace func(cfg sim.Config, server *sim.PhysicalServer) error) *tickHarness {
	b.Helper()
	cfg := sim.Default()
	cfg.Ambient = 33
	pol, err := core.NewFullStack(cfg)
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, 42)
	if err != nil {
		b.Fatal(err)
	}
	spiky, err := workload.NewSpiky(noisy, workload.PeriodicSpikes(90, 150, 30, 1.0, 1000))
	if err != nil {
		b.Fatal(err)
	}
	server, err := sim.NewPhysicalServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if replace != nil {
		if err := replace(cfg, server); err != nil {
			b.Fatal(err)
		}
	}
	if err := server.WarmStart(0.1, 1200); err != nil {
		b.Fatal(err)
	}
	h := &tickHarness{server: server, policy: pol, gen: spiky, tick: cfg.Tick}
	h.prev = sim.TickResult{Cap: 1, FanCmd: server.FanCommand(), FanActual: server.FanActual(), Measured: server.Junction()}
	for i := 0; i < 300; i++ { // warm the sensor ring and controller state
		h.step()
	}
	return h
}

// step is one engine tick: policy decision, actuation, platform tick.
func (h *tickHarness) step() {
	t := units.Seconds(float64(h.k) * float64(h.tick))
	demand := h.gen.At(t)
	cmd := h.policy.Step(sim.Observation{
		T:         t,
		Measured:  h.prev.Measured,
		Demand:    demand,
		Delivered: h.prev.Delivered,
		Violated:  h.prev.Violated,
		FanCmd:    h.server.FanCommand(),
		FanActual: h.server.FanActual(),
		Cap:       h.server.Cap(),
	})
	h.server.CommandFan(cmd.Fan)
	h.server.SetCap(cmd.Cap)
	h.server.TickInto(demand, &h.prev)
	h.k++
}

// BenchmarkServerTick measures one closed-loop engine tick (full DTM
// stack, measurement chain, thermal step, spiky noisy workload) after
// warm-up. The acceptance bar is zero allocs/op.
func BenchmarkServerTick(b *testing.B) {
	h := newTickHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step()
	}
}

// fullSensorChain swaps the server's clean sensor chain for the full
// non-ideal one — placement offset (power observation + subtraction),
// calibration bias, slew limiter, the clean base chain, dropout, and an
// armed stuck-at window. Shared by BenchmarkFaultChain and the
// fault-chain row of TestZeroAllocContracts.
func fullSensorChain(cfg sim.Config, server *sim.PhysicalServer) error {
	base, err := sensor.New(cfg.Sensor)
	if err != nil {
		return err
	}
	place, err := sensor.NewPlacementOffset(0.05)
	if err != nil {
		return err
	}
	calib, err := sensor.NewCalibrationBias(4, 42)
	if err != nil {
		return err
	}
	slew, err := sensor.NewSlewLimit(0.5)
	if err != nil {
		return err
	}
	drop, err := sensor.NewDropout(0.2, 7)
	if err != nil {
		return err
	}
	stuck, err := sensor.NewStuckAt(120, 240)
	if err != nil {
		return err
	}
	return server.ReplaceSensor(sensor.NewPipeline(place, calib, slew, base, drop, stuck))
}

// BenchmarkFaultChain measures the same closed-loop tick with the full
// non-ideal-sensing chain in the sensor path. The acceptance bar is the
// same as ServerTick: zero allocs/op.
func BenchmarkFaultChain(b *testing.B) {
	h := newTickHarnessSensor(b, fullSensorChain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step()
	}
}

// votingSensorChain swaps the clean sensor chain for the fault-tolerant
// array: three replicas of the full non-ideal chain (per-replica seeds,
// the stuck window wedging replica 0 only, as the scenario layer wires
// it) fused by a sensor.Redundant median voter. Shared by
// BenchmarkVotingChain and the voting-chain row of
// TestZeroAllocContracts.
func votingSensorChain(cfg sim.Config, server *sim.PhysicalServer) error {
	chains := make([]sensor.Stage, 3)
	for j := range chains {
		base, err := sensor.New(cfg.Sensor)
		if err != nil {
			return err
		}
		place, err := sensor.NewPlacementOffset(0.05)
		if err != nil {
			return err
		}
		calib, err := sensor.NewCalibrationBias(4, 42+int64(j))
		if err != nil {
			return err
		}
		slew, err := sensor.NewSlewLimit(0.5)
		if err != nil {
			return err
		}
		drop, err := sensor.NewDropout(0.2, 7+int64(j))
		if err != nil {
			return err
		}
		stages := []sensor.Stage{place, calib, slew, base, drop}
		if j == 0 {
			stuck, err := sensor.NewStuckAt(120, 240)
			if err != nil {
				return err
			}
			stages = append(stages, stuck)
		}
		chains[j] = sensor.NewPipeline(stages...)
	}
	red, err := sensor.NewRedundant(sensor.RedundantConfig{
		RangeMin: cfg.Sensor.RangeMin, RangeMax: cfg.Sensor.RangeMax,
	}, chains...)
	if err != nil {
		return err
	}
	return server.ReplaceSensor(sensor.NewPipeline(red))
}

// BenchmarkVotingChain measures the closed-loop tick with the redundant
// three-replica voting array in the sensor path — the worst-case sensing
// cost the scenario layer can configure. The acceptance bar is the same
// as ServerTick: zero allocs/op.
func BenchmarkVotingChain(b *testing.B) {
	h := newTickHarnessSensor(b, votingSensorChain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step()
	}
}

// BenchmarkEngineThroughput measures sim.Run end to end on a Table
// III-shaped hour and reports ticks per wall second; allocations here
// include the unavoidable per-run setup (traces off).
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := sim.Default()
	cfg.Ambient = 33
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, 42)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := core.NewFullStack(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const horizon = 3600
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server, err := sim.NewPhysicalServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(server, sim.RunConfig{
			Duration:  horizon,
			Workload:  noisy,
			Policy:    pol,
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
		}); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(horizon*float64(b.N)/sec, "ticks/s")
	}
}

// BenchmarkTable3Serial runs the Table III comparison (build the spec,
// run it, fold the rows) on one engine worker. Five lanes take one worker
// at any worker count (a pass takes one per four stepped lanes), so this
// is the batch engine's whole cost for the table.
func BenchmarkTable3Serial(b *testing.B) {
	tc := experiments.DefaultTable3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := experiments.Table3Spec(tc)
		spec.Workers = 1
		out, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Table3FromOutcome(out)
	}
}

// newMulticoreHarness returns a warm four-core platform and a balanced
// utilization vector for per-tick measurement.
func newMulticoreHarness(b *testing.B) (*multicore.Server, []units.Utilization) {
	b.Helper()
	cfg := multicore.DefaultConfig()
	server, err := multicore.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	server.CommandFan(4000)
	util := multicore.SplitEven(0.6, cfg.NCore)
	for i := 0; i < 200; i++ { // grow the per-core sensor rings
		if _, err := server.Tick(util); err != nil {
			b.Fatal(err)
		}
	}
	return server, util
}

// BenchmarkMulticoreTick measures one N-core platform tick (thermal
// network step, per-core measurement chains, fan slew) after warm-up. The
// acceptance bar is zero allocs/op: TickResult reuses per-server scratch.
func BenchmarkMulticoreTick(b *testing.B) {
	server, util := newMulticoreHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Tick(util); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticoreRunHour measures the three-controller scenario end to
// end on an hour horizon; allocations are per-run setup (server,
// controllers, result) plus nothing per tick — the loop's bookkeeping
// (scheduler proposals, fan history, core splits) is preallocated.
func BenchmarkMulticoreRunHour(b *testing.B) {
	cfg := multicore.DefaultConfig()
	cfg.Base.Ambient = 30
	noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Base.Tick, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multicore.Run(multicore.RunConfig{
			Config:     cfg,
			Duration:   3600,
			Workload:   noisy,
			Coordinate: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// lockstepBenchJobs builds n same-clock jobs mirroring the fleet archetype
// mix (noisy web square, Markov bursts, spiky batch, PRBS stress), each
// under the paper's full DTM stack with a decorrelated seed — the job
// population BenchmarkLockstepVsBatch compares the two engines on.
func lockstepBenchJobs(b *testing.B, n int) []sim.Job {
	b.Helper()
	cfg := sim.Default()
	cfg.Ambient = 30
	jobs := make([]sim.Job, n)
	for i := 0; i < n; i++ {
		seed := stats.SubSeed(11, int64(i))
		var gen workload.Generator
		var err error
		switch i % 4 {
		case 0:
			gen, err = workload.NewNoisy(workload.PaperSquare(400), 0.04, cfg.Tick, seed)
		case 1:
			gen = workload.Markov{IdleU: 0.15, BusyU: 0.85, Dwell: 45,
				PIdleToBusy: 0.25, PBusyToIdle: 0.2, Seed: seed}
		case 2:
			var noisy *workload.Noisy
			noisy, err = workload.NewNoisy(workload.Constant{U: 0.65}, 0.05, cfg.Tick, seed)
			if err == nil {
				gen, err = workload.NewSpiky(noisy, workload.PeriodicSpikes(200, 500, 30, 1.0, 6))
			}
		default:
			gen = workload.PRBS{Low: 0.2, High: 0.8, Dwell: 90, Seed: seed}
		}
		if err != nil {
			b.Fatal(err)
		}
		pol, err := core.NewFullStack(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = sim.Job{
			Name:   fmt.Sprintf("node-%02d", i),
			Server: sim.Factory(cfg),
			Config: sim.RunConfig{
				Duration:    900,
				Workload:    gen,
				Policy:      pol,
				RecordPower: true,
				WarmStart:   &sim.WarmPoint{Util: 0.2, Fan: 1500},
			},
		}
	}
	return jobs
}

// BenchmarkLockstepVsBatch compares one whole-batch pass at fleet-relevant
// batch sizes. The batch side runs each job alone through sim.Run on a
// fresh server, rebuilding servers and re-evaluating workload generators
// every op; the lockstep side re-steps one warm instance, the fleet fixed
// point's steady state — precompiled demand schedules, reused servers,
// reused recording buffers, zero allocations per pass at one worker.
// Results are bit-identical between the two (asserted by the sim tests);
// this benchmark measures what the reuse is worth. The
// lockstep-workers=0 entry re-steps 64 lanes at Workers 0, split over up
// to GOMAXPROCS workers of four lanes or more, so a multi-worker slowdown
// shows up here too.
func BenchmarkLockstepVsBatch(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run("batch/"+unitName("servers", float64(n), ""), func(b *testing.B) {
			jobs := lockstepBenchJobs(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, j := range jobs {
					server, err := j.Server()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sim.Run(server, j.Config); err != nil {
						b.Fatal(err)
					}
				}
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(900*float64(n)*float64(b.N)/sec, "ticks/s")
			}
		})
		b.Run("lockstep/"+unitName("servers", float64(n), ""), func(b *testing.B) {
			benchLockstepRestep(b, n, 1)
		})
	}
	b.Run("lockstep-workers=0/"+unitName("servers", 64, ""), func(b *testing.B) {
		benchLockstepRestep(b, 64, 0)
	})
}

// benchLockstepRestep times warm re-steps of an n-lane lockstep batch.
func benchLockstepRestep(b *testing.B, n, workers int) {
	ls, err := sim.NewLockstep(lockstepBenchJobs(b, n), sim.BatchOptions{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ls.Run(); err != nil { // warm rings and buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ls.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(900*float64(n)*float64(b.N)/sec, "ticks/s")
	}
}

// BenchmarkFleetFixedPoint measures the recirculation fixed point on the
// canonical 8-node rack: every op resolves the full relaxation (two
// passes at the default depth, each stepping the five nodes it can
// change) and aggregates the rack view.
// This is the number the lockstep rewrite is gated on — the warm rack
// instance re-steps with updated inlets instead of rebuilding and
// re-simulating every node from scratch each pass.
func BenchmarkFleetFixedPoint(b *testing.B) {
	cfg, err := fleet.NewRack(8, nil, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Duration = 900
	cfg.Recirc = 0.01
	cfg.Workers = 1
	res, err := fleet.Run(cfg) // warm-up + lane-tick probe
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(res.LaneTicks)*float64(b.N)/sec, "ticks/s")
	}
}

// BenchmarkFleetCoordinator measures the rack-level global coordinator
// end to end on the canonical 8-node rack: the local baseline relaxation
// plus the coordination rounds (migration planning, budget arbitration,
// warm re-relaxations) — the price of the coordinated column next to
// BenchmarkFleetFixedPoint's per-node-control price.
func BenchmarkFleetCoordinator(b *testing.B) {
	cfg, err := fleet.NewRack(8, nil, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Duration = 900
	cfg.Recirc = 0.03
	cfg.Workers = 1
	cc := fleet.CoordinatorConfig{PowerBudget: 1100}
	res, err := fleet.RunCoordinated(cfg, cc) // warm-up + lane-tick probe
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.RunCoordinated(cfg, cc); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(res.LaneTicks)*float64(b.N)/sec, "ticks/s")
	}
}

// BenchmarkFleetRun measures a recirculation-coupled 8-node rack (two
// relaxation passes) end to end at Workers=1 and Workers=0 (results
// bit-identical). Each pass steps five lanes, too few to split over two
// workers, so both run on one goroutine; BenchmarkLockstepVsBatch's
// lockstep-workers=0 entry is the multi-worker one.
func BenchmarkFleetRun(b *testing.B) {
	for _, workers := range []int{1, 0} {
		b.Run(unitName("workers", float64(workers), ""), func(b *testing.B) {
			cfg, err := fleet.NewRack(8, nil, 3)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Duration = 900
			cfg.Recirc = 0.01
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scenarioStoreSpec is the fixture for the store benchmarks: one hour of
// the full DTM stack under a noisy square wave — a realistic sweep cell,
// expensive enough that serving it from the store must win by orders of
// magnitude.
func scenarioStoreSpec() scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "bench-store",
		Duration: 3600,
		Jobs: []scenario.JobSpec{{
			Workload: scenario.FactoryRef{Name: "noisy-square", Seed: 42,
				Params: scenario.Params{"period": 600, "sigma": 0.04}},
			Policy:    scenario.FactoryRef{Name: "full"},
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
		}},
	}
}

// BenchmarkScenarioStoreHit measures a warm store lookup through the
// sweep path: hash the spec, read the cell, decode the outcome. This is
// what every finished cell of a resumed sweep costs — compare against
// BenchmarkScenarioRerun, the price of not having the store.
func BenchmarkScenarioStoreHit(b *testing.B) {
	st, err := scenario.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := scenarioStoreSpec()
	warm, err := scenario.Sweep([]scenario.Spec{spec}, st)
	if err != nil {
		b.Fatal(err)
	}
	if warm.Misses != 1 {
		b.Fatalf("warm-up misses = %d", warm.Misses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Sweep([]scenario.Spec{spec}, st)
		if err != nil {
			b.Fatal(err)
		}
		if res.Hits != 1 {
			b.Fatal("cold cell in a warm store")
		}
	}
}

// BenchmarkScenarioRerun is the storeless baseline for the same cell:
// the full simulation executes every op.
func BenchmarkScenarioRerun(b *testing.B) {
	spec := scenarioStoreSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

//go:build !race

// TestZeroAllocContracts is the single home of the repo's
// zero-allocation guarantees: every hot path that claims "no heap after
// warm-up" is one row of the table below, measured with
// testing.AllocsPerRun. The rows used to live as one-off tests next to
// each package (sensor, sim, multicore, workload, thermal); keeping them
// in one table makes the full contract surface visible at a glance and
// lets the -race build (where allocation counts are unreliable) skip
// them as a unit via the build tag above. scripts/ci.sh runs this test
// explicitly without -race so the bars stay asserted in CI.
package main

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/multicore"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// lockstepAllocJobs builds the four-lane mixed-workload batch the warm
// re-step contract is measured on (power metrics recorded, traces off —
// the fleet fixed point's per-pass configuration).
func lockstepAllocJobs(t testing.TB) []sim.Job {
	t.Helper()
	cfg := sim.Default()
	cfg.Ambient = 30
	jobs := make([]sim.Job, 4)
	for i := range jobs {
		var gen workload.Generator
		var err error
		switch i {
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
		pol, err := core.NewFullStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc := sim.RunConfig{
			Duration:    600,
			Workload:    gen,
			Policy:      pol,
			RecordPower: true,
		}
		if i%2 == 1 {
			rc.WarmStart = &sim.WarmPoint{Util: 0.2, Fan: 1500}
		}
		jobs[i] = sim.Job{Name: fmt.Sprintf("lane-%d", i), Server: sim.Factory(cfg), Config: rc}
	}
	return jobs
}

func TestZeroAllocContracts(t *testing.T) {
	cases := []struct {
		name string
		runs int
		// setup builds and warms the path, returning the measured op.
		setup func(t *testing.T) func()
	}{
		{
			// One closed-loop engine tick: full DTM stack, measurement
			// chain, thermal step, spiky noisy workload.
			name: "server-tick",
			runs: 500,
			setup: func(t *testing.T) func() {
				h := newTickHarness(t)
				return func() { h.step() }
			},
		},
		{
			// The same tick with the full non-ideal sensing chain
			// (placement offset, calibration bias, slew, dropout,
			// armed stuck-at) in the sensor path.
			name: "fault-chain-tick",
			runs: 500,
			setup: func(t *testing.T) func() {
				h := newTickHarnessSensor(t, fullSensorChain)
				return func() { h.step() }
			},
		},
		{
			// The same tick with the three-replica redundant voting
			// array (per-replica fault chains fused by median voting)
			// in the sensor path.
			name: "voting-chain-tick",
			runs: 500,
			setup: func(t *testing.T) func() {
				h := newTickHarnessSensor(t, votingSensorChain)
				return func() { h.step() }
			},
		},
		{
			// A warm lockstep re-step at one worker must not touch the
			// heap — the property the fleet fixed point's per-pass cost
			// rests on.
			name: "warm-lockstep-restep",
			runs: 3,
			setup: func(t *testing.T) func() {
				ls, err := sim.NewLockstep(lockstepAllocJobs(t), sim.BatchOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ls.Run(); err != nil { // warm caches, ring buffers, series
					t.Fatal(err)
				}
				return func() {
					if _, err := ls.Run(); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// Toggling a lane between full and power-only recording once
			// its full set exists reuses the same buffers.
			name: "warm-lockstep-record-toggle",
			runs: 3,
			setup: func(t *testing.T) func() {
				ls, err := sim.NewLockstep(lockstepAllocJobs(t), sim.BatchOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				full := false
				toggle := func() {
					full = !full
					ls.SetRecord(0, full)
					if _, err := ls.Run(); err != nil {
						t.Fatal(err)
					}
				}
				toggle()
				toggle()
				return toggle
			},
		},
		{
			// The RK4 integrator at the 16-node multicore shape after
			// the first Step compiles the neighbor list.
			name: "network-step",
			runs: 200,
			setup: func(t *testing.T) func() {
				net := buildNetwork(t, 16)
				if err := net.Step(1); err != nil {
					t.Fatal(err)
				}
				return func() {
					if err := net.Step(1); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// Step under the multicore access pattern, where the sink's
			// ambient resistance is retuned every tick as the fan law
			// moves: the O(n) time-constant refresh must stay heap-free.
			name: "network-step-retune",
			runs: 200,
			setup: func(t *testing.T) func() {
				net := buildNetwork(t, 16)
				law := thermal.TableIHeatSinkLaw()
				if err := net.Step(1); err != nil {
					t.Fatal(err)
				}
				i := 0
				return func() {
					v := units.RPM(2000 + (i%2)*3000)
					i++
					if err := net.ConnectAmbient(15, law.Resistance(v)); err != nil {
						t.Fatal(err)
					}
					if err := net.Step(1); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// multicore.Server.Tick once the sensor rings have grown to
			// steady size — TickResult reuses the per-server scratch
			// buffers (the aliasing contract scratchalias enforces).
			name: "multicore-tick",
			runs: 500,
			setup: func(t *testing.T) func() {
				server, err := multicore.NewServer(sim.Default())
				if err != nil {
					t.Fatal(err)
				}
				server.CommandFan(4000)
				util := multicore.SplitEven(0.6, multicore.NCore)
				for i := 0; i < 200; i++ { // grow sensor rings to steady state
					if _, err := server.Tick(util); err != nil {
						t.Fatal(err)
					}
				}
				return func() {
					if _, err := server.Tick(util); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// Spiky.At binary-searches a precompiled spike schedule —
			// per-sample evaluation must not allocate.
			name: "workload-spiky-at",
			runs: 1000,
			setup: func(t *testing.T) func() {
				sp, err := workload.NewSpiky(workload.Constant{U: 0.1}, workload.PeriodicSpikes(5, 30, 10, 0.9, 100))
				if err != nil {
					t.Fatal(err)
				}
				tm := units.Seconds(0)
				return func() {
					sp.At(tm)
					tm++
				}
			},
		},
		{
			// The sensor delay line's ring buffer stops growing once it
			// reaches steady state; per-sample pushes then recycle slots.
			name: "sensor-delayline-sample",
			runs: 1000,
			setup: func(t *testing.T) func() {
				d, err := sensor.NewDelayLine(10, 25)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 100; i++ { // warm the ring capacity
					d.Sample(units.Seconds(i), float64(i))
				}
				next := units.Seconds(100)
				return func() {
					d.Sample(next, float64(next))
					next++
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.setup(t)
			if allocs := testing.AllocsPerRun(tc.runs, op); allocs != 0 {
				t.Errorf("%s allocates %.2f objects/op after warm-up, want 0", tc.name, allocs)
			}
		})
	}
}

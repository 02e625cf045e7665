package fleet

import (
	"strings"
	"testing"

	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/units"
)

// naiveRun reimplements the pre-lockstep relaxation loop — every pass
// rebuilds every node (server, workload generator, policy) and runs each
// node alone through sim.Run, recording only on the final pass — as the
// reference the warm-instance rewrite must match bit for bit.
func naiveRun(t *testing.T, c Config) *Result {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	passes := 1
	if c.Recirc > 0 {
		if c.RecircPasses > 0 {
			passes += c.RecircPasses
		} else {
			passes += DefaultRecircPasses
		}
	}
	meanPower := make([]units.Watt, len(c.Nodes))
	results := make([]*sim.Result, len(c.Nodes))
	var inlets []units.Celsius
	for p := 0; p < passes; p++ {
		inlets = c.Inlets(meanPower)
		final := p == passes-1
		for i, n := range c.Nodes {
			cfg := n.Config
			cfg.Ambient = inlets[i]
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			gen, err := n.Workload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := n.Policy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			build := sim.NewPhysicalServer
			if n.Server != nil {
				build = n.Server
			}
			server, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.Run(server, sim.RunConfig{
				Duration:    c.Duration,
				Workload:    gen,
				Policy:      pol,
				Record:      final && c.Record,
				RecordPower: final,
				WarmStart:   n.WarmStart,
			})
			if err != nil {
				t.Fatal(err)
			}
			results[i] = r
			meanPower[i] = units.Watt(float64(r.Metrics.CPUEnergy+r.Metrics.FanEnergy) / float64(c.Duration))
		}
	}
	res, err := c.aggregate(inlets, results, passes)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFixedPointMatchesNaiveRebuild is the warm-instance acceptance bar:
// the relaxation's pass count, resolved inlet field, per-node metrics and
// rack aggregates must all be unchanged by holding one warm lockstep
// instance instead of rebuilding the rack every pass.
func TestFixedPointMatchesNaiveRebuild(t *testing.T) {
	for _, passes := range []int{0, 2} { // default depth and a deeper relaxation
		cfg := testRack(t, 5, 1)
		cfg.RecircPasses = passes
		want := naiveRun(t, cfg)
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Passes != want.Passes {
			t.Fatalf("RecircPasses=%d: warm rewrite ran %d passes, naive %d", passes, got.Passes, want.Passes)
		}
		for i := range want.Nodes {
			if got.Nodes[i].Inlet != want.Nodes[i].Inlet {
				t.Errorf("RecircPasses=%d node %q: inlet %v != naive %v",
					passes, want.Nodes[i].Name, got.Nodes[i].Inlet, want.Nodes[i].Inlet)
			}
			if got.Nodes[i].Metrics != want.Nodes[i].Metrics {
				t.Errorf("RecircPasses=%d node %q: metrics differ from naive rebuild",
					passes, want.Nodes[i].Name)
			}
		}
		if got.ViolationFrac != want.ViolationFrac ||
			got.FanEnergy != want.FanEnergy ||
			got.CPUEnergy != want.CPUEnergy ||
			got.PeakRackPower != want.PeakRackPower ||
			got.MeanRackPower != want.MeanRackPower ||
			got.MaxJunction != want.MaxJunction {
			t.Errorf("RecircPasses=%d: rack aggregates differ from naive rebuild", passes)
		}
	}
}

// TestFixedPointFaultedServerMatchesNaiveRebuild: a node whose sensor
// chain carries stateful non-ideal stages (power-tracking placement
// offset, slew limiter, dropout) must relax identically whether the rack
// holds one warm lockstep instance — stage state surviving only through
// Reset between passes — or rebuilds every node from scratch each pass.
// A stage whose Reset leaks state across passes diverges here. A second
// node fuses three replica chains through a sensor.Redundant voter, the
// deepest stateful stack the scenario layer builds (per-replica fault
// state plus the voter's hold/disagree counters), so the voter's Reset
// contract is exercised through the rack relaxation too.
func TestFixedPointFaultedServerMatchesNaiveRebuild(t *testing.T) {
	cfg := testRack(t, 4, 3)
	cfg.RecircPasses = 2
	cfg.Nodes[0].Server = func(c sim.Config) (*sim.PhysicalServer, error) {
		server, err := sim.NewPhysicalServer(c)
		if err != nil {
			return nil, err
		}
		base, err := sensor.New(c.Sensor)
		if err != nil {
			return nil, err
		}
		place, err := sensor.NewPlacementOffset(0.05)
		if err != nil {
			return nil, err
		}
		slew, err := sensor.NewSlewLimit(0.5)
		if err != nil {
			return nil, err
		}
		drop, err := sensor.NewDropout(0.3, 7)
		if err != nil {
			return nil, err
		}
		if err := server.ReplaceSensor(sensor.NewPipeline(place, slew, base, drop)); err != nil {
			return nil, err
		}
		return server, nil
	}
	cfg.Nodes[1].Server = func(c sim.Config) (*sim.PhysicalServer, error) {
		server, err := sim.NewPhysicalServer(c)
		if err != nil {
			return nil, err
		}
		chains := make([]sensor.Stage, 3)
		for j := range chains {
			scfg := c.Sensor
			base, err := sensor.New(scfg)
			if err != nil {
				return nil, err
			}
			drop, err := sensor.NewDropout(0.25, int64(100+j))
			if err != nil {
				return nil, err
			}
			if j == 0 {
				stuck, err := sensor.NewStuckAt(60, 200)
				if err != nil {
					return nil, err
				}
				chains[j] = sensor.NewPipeline(base, drop, stuck)
				continue
			}
			chains[j] = sensor.NewPipeline(base, drop)
		}
		red, err := sensor.NewRedundant(sensor.RedundantConfig{
			RangeMin: c.Sensor.RangeMin, RangeMax: c.Sensor.RangeMax,
		}, chains...)
		if err != nil {
			return nil, err
		}
		if err := server.ReplaceSensor(sensor.NewPipeline(red)); err != nil {
			return nil, err
		}
		return server, nil
	}
	want := naiveRun(t, cfg)
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Passes != want.Passes {
		t.Fatalf("warm rewrite ran %d passes, naive %d", got.Passes, want.Passes)
	}
	for i := range want.Nodes {
		if got.Nodes[i].Inlet != want.Nodes[i].Inlet {
			t.Errorf("node %q: inlet %v != naive %v",
				want.Nodes[i].Name, got.Nodes[i].Inlet, want.Nodes[i].Inlet)
		}
		if got.Nodes[i].Metrics != want.Nodes[i].Metrics {
			t.Errorf("node %q: metrics differ from naive rebuild", want.Nodes[i].Name)
		}
	}
	if got.ViolationFrac != want.ViolationFrac || got.FanEnergy != want.FanEnergy {
		t.Errorf("rack aggregates differ from naive rebuild")
	}
}

// TestFixedPointConvergence: with a tolerance the relaxation runs until
// the inlet field settles, reports how many passes that took, and the
// resolved field is genuinely self-consistent (one more projection moves
// it less than the tolerance).
func TestFixedPointConvergence(t *testing.T) {
	cfg := testRack(t, 5, 1)
	cfg.RecircTol = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 2 {
		t.Errorf("converged in %d passes; recirculation should need at least 2", res.Passes)
	}
	if res.Passes > DefaultMaxRecircPasses {
		t.Errorf("passes %d exceeds bound %d", res.Passes, DefaultMaxRecircPasses)
	}
	// Self-consistency: projecting the final mean powers through the inlet
	// model again must stay within the tolerance of the reported field.
	meanPower := make([]units.Watt, len(cfg.Nodes))
	inlets := make([]units.Celsius, len(cfg.Nodes))
	for i, n := range res.Nodes {
		meanPower[i] = units.Watt(float64(n.Metrics.CPUEnergy+n.Metrics.FanEnergy) / float64(cfg.Duration))
		inlets[i] = n.Inlet
	}
	next := cfg.Inlets(meanPower)
	if d := maxDelta(next, inlets); d > float64(cfg.RecircTol) {
		t.Errorf("reported inlet field moves %.4g degC under one more projection, tol %v", d, cfg.RecircTol)
	}
}

// TestFixedPointDivergenceGuard: when the pass budget cannot reach the
// tolerance the relaxation must error loudly instead of silently returning
// a non-converged field.
func TestFixedPointDivergenceGuard(t *testing.T) {
	cfg := testRack(t, 5, 1)
	// One pass can never satisfy the tolerance: the first projection adds
	// the (nonzero) recirculation contributions to the position-only field.
	cfg.RecircTol = 1e-12
	cfg.MaxRecircPasses = 1
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("non-converged relaxation returned silently")
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestFixedPointTolValidation: negative or non-finite tolerances and
// negative pass bounds are rejected.
func TestFixedPointTolValidation(t *testing.T) {
	cfg := testRack(t, 3, 1)
	cfg.RecircTol = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative tolerance accepted")
	}
	cfg = testRack(t, 3, 1)
	cfg.MaxRecircPasses = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative max passes accepted")
	}
}

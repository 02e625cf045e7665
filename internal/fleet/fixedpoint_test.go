package fleet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/units"
)

// naiveRun reimplements the pre-lockstep relaxation loop — every pass
// rebuilds every node (server, workload generator, policy) and runs each
// node alone through sim.Run, recording full traces only on the final pass
// (every pass under a tolerance) — as the reference the warm-instance
// rewrite must match bit for bit. It returns the rack result, whose
// LaneTicks counts every node of every pass, and each node's final run.
func naiveRun(t *testing.T, c Config) (*Result, []*sim.Result) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	tolMode := c.Recirc > 0 && c.RecircTol > 0
	maxPasses := 1
	switch {
	case tolMode && c.MaxRecircPasses > 0:
		maxPasses = c.MaxRecircPasses
	case tolMode:
		maxPasses = DefaultMaxRecircPasses
	case c.Recirc > 0 && c.RecircPasses > 0:
		maxPasses += c.RecircPasses
	case c.Recirc > 0:
		maxPasses += DefaultRecircPasses
	}
	meanPower := make([]units.Watt, len(c.Nodes))
	results := make([]*sim.Result, len(c.Nodes))
	inlets := c.Inlets(meanPower)
	passes := 0
	for {
		passes++
		final := tolMode || passes == maxPasses
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
		next := c.Inlets(meanPower)
		if tolMode && maxDelta(next, inlets) <= float64(c.RecircTol) {
			break
		}
		if passes == maxPasses {
			if tolMode {
				t.Fatalf("naive relaxation did not converge within %d passes", maxPasses)
			}
			break
		}
		inlets = next
	}
	res, err := c.aggregate(inlets, results, passes, c.Record)
	if err != nil {
		t.Fatal(err)
	}
	res.LaneTicks = passes * len(c.Nodes) * res.Ticks
	return res, results
}

// warmRun resolves the fixed point on one warm rack instance, as Run does,
// and returns the rack result with every lane's current result (read back
// through a pass that steps no lane).
func warmRun(t *testing.T, c Config) (*Result, []*sim.Result) {
	t.Helper()
	r, err := newRack(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.relax(c.Record)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := r.ls.RunLanes(make([]bool, len(c.Nodes)))
	if err != nil {
		t.Fatal(err)
	}
	return res, lanes
}

// assertMatchesNaive requires the warm relaxation to reproduce the naive
// rebuild: pass count, inlets, per-node metrics and traces, rack
// aggregates and every node's power series, bit for bit. Only the
// stepped lane-ticks may differ, and only downwards.
func assertMatchesNaive(t *testing.T, label string, c Config) {
	t.Helper()
	want, wantLanes := naiveRun(t, c)
	got, gotLanes := warmRun(t, c)
	if got.Passes != want.Passes {
		t.Fatalf("%s: warm rewrite ran %d passes, naive %d", label, got.Passes, want.Passes)
	}
	if got.LaneTicks <= 0 || got.LaneTicks > want.LaneTicks {
		t.Errorf("%s: warm rewrite stepped %d lane-ticks, naive %d", label, got.LaneTicks, want.LaneTicks)
	}
	for i := range want.Nodes {
		if got.Nodes[i].Inlet != want.Nodes[i].Inlet {
			t.Errorf("%s node %q: inlet %v != naive %v",
				label, want.Nodes[i].Name, got.Nodes[i].Inlet, want.Nodes[i].Inlet)
		}
		if got.Nodes[i].Metrics != want.Nodes[i].Metrics {
			t.Errorf("%s node %q: metrics differ from naive rebuild", label, want.Nodes[i].Name)
		}
		if !reflect.DeepEqual(gotLanes[i].Traces.Get("total_power"), wantLanes[i].Traces.Get("total_power")) {
			t.Errorf("%s node %q: power series differs from naive rebuild", label, want.Nodes[i].Name)
		}
	}
	g := *got
	g.LaneTicks = want.LaneTicks
	if !reflect.DeepEqual(&g, want) {
		t.Errorf("%s: rack result differs from naive rebuild", label)
	}
}

// TestFixedPointMatchesNaiveRebuild is the warm-instance acceptance bar:
// the relaxation's pass count, resolved inlet field, per-node metrics,
// power series and rack aggregates must all be unchanged by holding one
// warm lockstep instance, and by stepping only the lanes a pass can
// change, instead of rebuilding the rack every pass. The cases cover a
// one-node aisle, two nodes sharing an aisle slot, a relaxation deep
// enough that the reach rule skips middle slots (and a whole first pass),
// full trace capture, and the tolerance mode.
func TestFixedPointMatchesNaiveRebuild(t *testing.T) {
	rack := func(n int, layout []Aisle) Config {
		cfg, err := NewRack(n, layout, 99)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Duration = 600
		cfg.Recirc = 0.01
		cfg.Workers = 1
		return cfg
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"default depth", func() Config { return testRack(t, 5, 1) }},
		{"RecircPasses=2", func() Config {
			cfg := testRack(t, 5, 1)
			cfg.RecircPasses = 2
			return cfg
		}},
		{"one-node aisle", func() Config { return rack(4, []Aisle{Cold, Cold, Cold, Hot}) }},
		{"shared slot", func() Config {
			cfg := testRack(t, 5, 1)
			cfg.Nodes[3].Slot = cfg.Nodes[0].Slot // cold-01 beside cold-00
			return cfg
		}},
		{"RecircPasses=3", func() Config {
			cfg := rack(6, []Aisle{Cold, Hot}) // three slots per aisle
			cfg.RecircPasses = 3
			return cfg
		}},
		{"Record", func() Config {
			cfg := testRack(t, 5, 1)
			cfg.Record = true
			return cfg
		}},
		{"RecircTol", func() Config {
			cfg := testRack(t, 5, 1)
			cfg.RecircTol = 0.05
			cfg.Record = true
			return cfg
		}},
	}
	for _, tc := range cases {
		assertMatchesNaive(t, tc.name, tc.cfg())
	}
}

// TestFixedPointLaneTicks pins the work the relaxation skips on the
// canonical 8-node rack at the default depth: the first pass steps the
// five nodes below an aisle's top slot, and the second the five above an
// aisle's bottom slot, whose inlets moved — 10 lanes of 900 ticks, not 16.
func TestFixedPointLaneTicks(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cfg, err := NewRack(8, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Duration = 900
		cfg.Recirc = 0.01
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.LaneTicks != 9000 {
			t.Errorf("seed %d: stepped %d lane-ticks, want 9000", seed, res.LaneTicks)
		}
	}
}

// runCounter is a pass-through sensor stage that counts the runs its
// chain makes: the first Sample after a Reset starts a new one.
type runCounter struct {
	runs  int
	fresh bool
}

func (c *runCounter) Sample(_ units.Seconds, v float64) float64 {
	if c.fresh {
		c.runs++
		c.fresh = false
	}
	return v
}

func (c *runCounter) Reset() { c.fresh = true }

// TestFixedPointFaultedServerMatchesNaiveRebuild: a node whose sensor
// chain carries stateful non-ideal stages (power-tracking placement
// offset, slew limiter, dropout) must relax identically whether the rack
// holds one warm lockstep instance — stage state surviving only through
// Reset between passes — or rebuilds every node from scratch each pass.
// A stage whose Reset leaks state across passes diverges here. A second
// node fuses three replica chains through a sensor.Redundant voter, the
// deepest stateful stack the scenario layer builds (per-replica fault
// state plus the voter's hold/disagree counters), so the voter's Reset
// contract is exercised through the rack relaxation too. Both chains sit
// on middle slots (cold-01 and hot-01 of a three-slot-deep rack), the
// only lanes both passes of the default depth step: a chain that runs
// once per relaxation never calls Reset between runs, and a leaky Reset
// would pass unseen. Each chain ends in a runCounter that pins the two
// warm runs.
func TestFixedPointFaultedServerMatchesNaiveRebuild(t *testing.T) {
	cfg, err := NewRack(6, []Aisle{Cold, Hot}, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 600
	cfg.Recirc = 0.01
	cfg.Workers = 1
	const coldMid, hotMid = 2, 3
	if cfg.Nodes[coldMid].Name != "cold-01" || cfg.Nodes[hotMid].Name != "hot-01" {
		t.Fatalf("faulted nodes are %q and %q, want cold-01 and hot-01", cfg.Nodes[coldMid].Name, cfg.Nodes[hotMid].Name)
	}
	// counters holds each faulted node's latest chain counter: after the
	// naive rebuild and then the warm run, the warm lane's.
	counters := map[int]*runCounter{}
	cfg.Nodes[coldMid].Server = func(c sim.Config) (*sim.PhysicalServer, error) {
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
		counters[coldMid] = &runCounter{}
		if err := server.ReplaceSensor(sensor.NewPipeline(place, slew, base, drop, counters[coldMid])); err != nil {
			return nil, err
		}
		return server, nil
	}
	cfg.Nodes[hotMid].Server = func(c sim.Config) (*sim.PhysicalServer, error) {
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
		counters[hotMid] = &runCounter{}
		if err := server.ReplaceSensor(sensor.NewPipeline(red, counters[hotMid])); err != nil {
			return nil, err
		}
		return server, nil
	}
	assertMatchesNaive(t, "faulted", cfg)
	for _, i := range []int{coldMid, hotMid} {
		if n := counters[i].runs; n != 2 {
			t.Errorf("node %q: warm chain ran %d times, want 2 (once per pass)", cfg.Nodes[i].Name, n)
		}
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

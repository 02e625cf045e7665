package fleet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// testRack returns a small heterogeneous rack with recirculation on and a
// short horizon, cheap enough for repeated determinism runs.
func testRack(t testing.TB, n int, workers int) Config {
	t.Helper()
	cfg, err := NewRack(n, nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 600
	cfg.Recirc = 0.01
	cfg.Workers = workers
	return cfg
}

func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	base := testRack(t, 4, 1)
	cases := map[string]func(*Config){
		"empty rack":      func(c *Config) { c.Nodes = nil },
		"zero duration":   func(c *Config) { c.Duration = 0 },
		"nan supply":      func(c *Config) { c.Supply = units.Celsius(math.NaN()) },
		"nan offset":      func(c *Config) { c.AisleOffsets[Hot] = units.Celsius(math.Inf(1)) },
		"negative recirc": func(c *Config) { c.Recirc = -0.01 },
		"nan recirc":      func(c *Config) { c.Recirc = units.KPerW(math.NaN()) },
		"negative passes": func(c *Config) { c.RecircPasses = -1 },
		"unnamed node":    func(c *Config) { c.Nodes[1].Name = "" },
		"duplicate name":  func(c *Config) { c.Nodes[1].Name = c.Nodes[0].Name },
		"unknown aisle":   func(c *Config) { c.Nodes[2].Aisle = NumAisles },
		"negative slot":   func(c *Config) { c.Nodes[2].Slot = -1 },
		"nil workload":    func(c *Config) { c.Nodes[3].Workload = nil },
		"nil policy":      func(c *Config) { c.Nodes[3].Policy = nil },
		"mixed tick":      func(c *Config) { c.Nodes[1].Config.Tick = 2 },
		"bad node config": func(c *Config) { c.Nodes[0].Config.FanMaxSpeed = 0 },
	}
	for name, mutate := range cases {
		cfg := testRack(t, 4, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted", name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid rack rejected: %v", err)
	}
}

func TestNewRackShape(t *testing.T) {
	cfg, err := NewRack(7, []Aisle{Cold, Hot}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Nodes) != 7 {
		t.Fatalf("%d nodes", len(cfg.Nodes))
	}
	// Layout cycles cold/hot; slots count per aisle.
	wantAisle := []Aisle{Cold, Hot, Cold, Hot, Cold, Hot, Cold}
	wantSlot := []int{0, 0, 1, 1, 2, 2, 3}
	for i, n := range cfg.Nodes {
		if n.Aisle != wantAisle[i] || n.Slot != wantSlot[i] {
			t.Errorf("node %d: %v slot %d, want %v slot %d", i, n.Aisle, n.Slot, wantAisle[i], wantSlot[i])
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRack(0, nil, 1); err == nil {
		t.Error("0-node rack accepted")
	}
	if _, err := NewRack(2, []Aisle{NumAisles}, 1); err == nil {
		t.Error("bad layout accepted")
	}
}

// TestInletField pins the shared-field model: aisle offsets order the
// inlets, recirculation raises only downstream same-aisle nodes, and a
// zero coefficient leaves the position-only field.
func TestInletField(t *testing.T) {
	cfg := testRack(t, 6, 1) // layout cold,mid,hot cycled twice
	cfg.Recirc = 0
	inlets := cfg.Inlets(nil)
	for i, n := range cfg.Nodes {
		want := cfg.Supply + cfg.AisleOffsets[n.Aisle]
		if inlets[i] != want {
			t.Errorf("node %q inlet %v, want %v", n.Name, inlets[i], want)
		}
	}

	cfg.Recirc = 0.02
	power := []units.Watt{100, 100, 100, 100, 100, 100}
	inlets = cfg.Inlets(power)
	// Nodes 0..2 are slot 0 of their aisles: no upstream, unchanged.
	for i := 0; i < 3; i++ {
		if inlets[i] != cfg.Supply+cfg.AisleOffsets[cfg.Nodes[i].Aisle] {
			t.Errorf("slot-0 node %d inlet shifted to %v", i, inlets[i])
		}
	}
	// Nodes 3..5 are slot 1: exactly one 100 W node upstream ⇒ +2 °C.
	for i := 3; i < 6; i++ {
		want := cfg.Supply + cfg.AisleOffsets[cfg.Nodes[i].Aisle] + 2
		if math.Abs(float64(inlets[i]-want)) > 1e-12 {
			t.Errorf("slot-1 node %d inlet %v, want %v", i, inlets[i], want)
		}
	}
}

// TestRunParallelMatchesSerial is the fleet acceptance bar: aggregate
// metrics bit-identical between Workers = 1 and Workers = N. A pass takes
// one worker per four lanes it steps, so only the 24-node rack's passes
// (21 lanes each) split over two and four workers.
func TestRunParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		nodes   int
		workers []int
	}{
		{6, []int{2, 4, 0}},
		{24, []int{2, 4}},
	} {
		want, err := Run(testRack(t, tc.nodes, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			got, err := Run(testRack(t, tc.nodes, workers))
			if err != nil {
				t.Fatalf("nodes=%d workers=%d: %v", tc.nodes, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("nodes=%d workers=%d: fleet result differs from serial run", tc.nodes, workers)
			}
		}
	}
}

// TestRunDeterministicAcrossRepeats: same seed ⇒ bit-identical results on
// every repetition (mirrors batch_test.go for the fleet layer).
func TestRunDeterministicAcrossRepeats(t *testing.T) {
	first, err := Run(testRack(t, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		again, err := Run(testRack(t, 5, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("repeat %d: fleet result drifted", rep)
		}
	}
}

// TestRunPhysics: hotter aisle positions must run hotter and spin fans
// harder under identical demand, and the rack aggregates must be
// consistent with their parts.
func TestRunPhysics(t *testing.T) {
	constant := func(cfg sim.Config) (workload.Generator, error) {
		return workload.Constant{U: 0.6}, nil
	}
	mkNode := func(name string, aisle Aisle, slot int) NodeSpec {
		return NodeSpec{
			Name: name, Aisle: aisle, Slot: slot,
			Config: sim.Default(), Workload: constant, Policy: FullStack,
			// Start at an operating point: from a cold chassis the DTM's
			// release transient dominates the 30-minute horizon.
			WarmStart: &sim.WarmPoint{Util: 0.2, Fan: 1500},
		}
	}
	cfg := Config{
		Nodes: []NodeSpec{
			mkNode("cold-00", Cold, 0),
			mkNode("hot-00", Hot, 0),
			mkNode("hot-01", Hot, 1),
		},
		Supply:       24,
		AisleOffsets: DefaultOffsets(),
		Recirc:       0.02,
		Duration:     1800,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1+DefaultRecircPasses {
		t.Errorf("passes = %d", res.Passes)
	}
	cold, hot0, hot1 := res.Nodes[0], res.Nodes[1], res.Nodes[2]
	if hot0.Inlet <= cold.Inlet {
		t.Errorf("hot-aisle inlet %v not above cold-aisle %v", hot0.Inlet, cold.Inlet)
	}
	if hot1.Inlet <= hot0.Inlet {
		t.Errorf("downstream inlet %v not raised above upstream %v by recirculation", hot1.Inlet, hot0.Inlet)
	}
	// The adaptive-T_ref DTM regulates every junction to the same comfort
	// band, so the position penalty shows up as fan effort, not junction
	// temperature: hotter inlets must cost fan speed and energy.
	if hot0.Metrics.MeanFanSpeed <= cold.Metrics.MeanFanSpeed {
		t.Errorf("hot node mean fan %v not above cold node %v", hot0.Metrics.MeanFanSpeed, cold.Metrics.MeanFanSpeed)
	}
	if hot0.Metrics.FanEnergy <= cold.Metrics.FanEnergy {
		t.Errorf("hot node fan energy %v not above cold node %v", hot0.Metrics.FanEnergy, cold.Metrics.FanEnergy)
	}

	// Aggregates are consistent with per-node metrics.
	var fanE, cpuE units.Joule
	maxJ := units.Celsius(0)
	for _, n := range res.Nodes {
		fanE += n.Metrics.FanEnergy
		cpuE += n.Metrics.CPUEnergy
		if n.Metrics.MaxJunction > maxJ {
			maxJ = n.Metrics.MaxJunction
		}
	}
	if res.FanEnergy != fanE || res.CPUEnergy != cpuE || res.TotalEnergy != fanE+cpuE {
		t.Error("energy aggregates inconsistent with node metrics")
	}
	if res.MaxJunction != maxJ {
		t.Errorf("rack MaxJunction %v != max over nodes %v", res.MaxJunction, maxJ)
	}
	if res.Aisles[Hot].Nodes != 2 || res.Aisles[Cold].Nodes != 1 || res.Aisles[Mid].Nodes != 0 {
		t.Errorf("aisle populations = %+v", res.Aisles)
	}
	if res.Aisles[Hot].MeanInlet <= res.Aisles[Cold].MeanInlet {
		t.Error("hot aisle mean inlet not above cold aisle")
	}

	// Rack power: peak ≥ mean > 0, and the peak of the summed profile
	// cannot exceed the sum of per-node maxima.
	if res.MeanRackPower <= 0 || res.PeakRackPower < res.MeanRackPower {
		t.Errorf("rack power peak %v / mean %v malformed", res.PeakRackPower, res.MeanRackPower)
	}
	if res.Ticks != 1800 {
		t.Errorf("ticks = %d", res.Ticks)
	}
	if res.Nodes[0].Traces != nil {
		t.Error("traces retained without Record")
	}

	// A wider hot-aisle spread costs fan energy at the same rack and
	// workloads: the mid and hot aisles breathe hotter air.
	fanEnergy := func(spread units.Celsius) units.Joule {
		cfg := testRack(t, 4, 1)
		cfg.AisleOffsets = [NumAisles]units.Celsius{Cold: 0, Mid: spread / 2, Hot: spread}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FanEnergy
	}
	if narrow, wide := fanEnergy(0), fanEnergy(8); wide <= narrow {
		t.Errorf("spread 8 fan energy %v not above spread 0 %v", wide, narrow)
	}
}

func TestRunRecordKeepsTraces(t *testing.T) {
	cfg := testRack(t, 2, 1)
	cfg.Duration = 120
	cfg.Record = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if n.Traces == nil || n.Traces.Get("total_power") == nil {
			t.Fatalf("node %q missing recorded traces", n.Name)
		}
	}
}

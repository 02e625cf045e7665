// Package fleet is the rack/datacenter topology layer on top of the sim
// batch engine: it simulates N heterogeneous servers — each with its own
// sim.Config, workload generator and DTM policy — as one parallel batch,
// couples them through a shared inlet-temperature field, and aggregates
// rack-level metrics (violations, fan and CPU energy, per-aisle
// breakdowns, peak rack power).
//
// The paper's controller is per-server, but enterprise servers never run
// alone: racks share the machine-room air. The inlet model captures the
// two first-order effects of that sharing. First, position: cold-aisle
// faces breathe CRAC supply air while mid- and hot-aisle positions sit in
// progressively warmer air (Config.Supply plus Config.AisleOffsets).
// Second, recirculation: a fraction of upstream exhaust re-enters
// downstream intakes along an aisle's airflow path, so a node's inlet
// rises with the mean power dissipated by the nodes at lower Slot indices
// in its aisle (Config.Recirc, resolved by fixed-point relaxation over
// whole-rack simulation passes — see Run).
//
// Every node of a fleet run is an independent lane of one warm
// sim.Lockstep batch: servers are constructed and workload schedules
// precompiled once per Run, and each relaxation pass re-steps the lanes
// whose result can still change the outcome, with updated inlets and
// fresh policies. The rack inherits the batch engine's guarantees —
// results are order-stable, bit-identical between Workers = 1 and
// Workers = N (and to rebuilding every node each pass and running it
// alone through sim.Run), and -race clean.
package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Aisle is a rack position class in the cold/hot-aisle containment layout.
type Aisle int

// Aisle positions, ordered by inlet temperature.
const (
	Cold Aisle = iota // faces the CRAC supply
	Mid               // row middle, partially mixed air
	Hot               // faces the exhaust side
	NumAisles
)

// String implements fmt.Stringer.
func (a Aisle) String() string {
	switch a {
	case Cold:
		return "cold"
	case Mid:
		return "mid"
	case Hot:
		return "hot"
	}
	return fmt.Sprintf("aisle(%d)", int(a))
}

// WorkloadFactory builds a node's workload generator from its resolved
// configuration (the Tick is needed by per-tick noise overlays). Factories
// may be shared across nodes: generators are read-only during a run. A
// factory is invoked once per Run — with the node's position inlet in
// cfg.Ambient — and its generator is precompiled into a demand schedule
// reused across every relaxation pass, so generators must not depend on
// the ambient temperature (demand is exogenous to the machine room).
type WorkloadFactory func(cfg sim.Config) (workload.Generator, error)

// PolicyFactory builds a node's private DTM policy from its resolved
// configuration. It is invoked once per node per pass, so every batch job
// owns its policy state (the batch engine rejects aliased policies).
type PolicyFactory func(cfg sim.Config) (sim.Policy, error)

// ServerFactory optionally overrides a node's platform construction —
// the hook the scenario layer uses to splice fault stages into a node's
// sensor chain. It receives the node's resolved configuration (position
// inlet applied) and is invoked once per Run: the warm lockstep keeps the
// instance across relaxation passes and coordinator rounds, Reset()ing it
// (server and sensor chain, fault stages included) between passes, so
// every pass replays the same non-ideal chain from its initial state.
type ServerFactory func(cfg sim.Config) (*sim.PhysicalServer, error)

// NodeSpec describes one server's place in the rack.
type NodeSpec struct {
	// Name labels the node in results; must be unique within the rack.
	Name string
	// Aisle is the node's position class; it selects the inlet offset.
	Aisle Aisle
	// Slot is the node's depth along its aisle's airflow path: recirculated
	// exhaust from nodes at strictly lower slots raises this node's inlet.
	Slot int
	// Config is the node's platform; its Ambient is overwritten by the
	// resolved inlet temperature.
	Config sim.Config
	// Workload builds the node's demand trace. Required.
	Workload WorkloadFactory
	// Policy builds the node's DTM. Required.
	Policy PolicyFactory
	// Server optionally overrides platform construction (fault-injected
	// sensor chains); nil builds the plain sim.NewPhysicalServer.
	Server ServerFactory
	// WarmStart optionally starts the node at a thermal operating point.
	WarmStart *sim.WarmPoint
}

// Config describes a whole-rack simulation.
type Config struct {
	// Nodes is the rack population. Required, non-empty.
	Nodes []NodeSpec
	// Supply is the CRAC supply (cold-aisle inlet) temperature.
	Supply units.Celsius
	// AisleOffsets is added to Supply per aisle position.
	AisleOffsets [NumAisles]units.Celsius
	// Recirc is the recirculation coefficient: the inlet temperature rise,
	// per watt of mean upstream power, seen by a downstream node in the
	// same aisle. Zero disables recirculation (single pass).
	Recirc units.KPerW
	// RecircPasses is the number of fixed-point relaxation passes resolving
	// the recirculation coupling (each pass re-simulates the rack with the
	// inlet field computed from the previous pass's mean node powers).
	// Zero means DefaultRecircPasses when Recirc > 0. A node's inlet
	// depends only on the lower slots of its aisle, so the deepest aisle's
	// slot levels − 1 resolves the field exactly.
	RecircPasses int
	// Duration is the simulated horizon per node.
	Duration units.Seconds
	// Workers caps batch concurrency; zero means GOMAXPROCS; results are
	// bit-identical at any value.
	Workers int
	// Record keeps every node's full trace set in the result (memory-heavy
	// for long runs; rack power metrics are computed either way).
	Record bool
}

// DefaultRecircPasses is the relaxation depth used when Recirc > 0 and
// RecircPasses is unset: two passes in all. A node's inlet depends only
// on the lower slots of its aisle, so two passes are exact only while
// every aisle holds at most two slot levels, as on every rack under
// specs/. Deeper aisles are left short: on 900 s NewRack racks at Recirc
// 0.03, inlets sit 0.09-0.12 °C from the exact schedule (RecircPasses =
// slot levels − 1) at 8 nodes, 1.26-1.40 °C at 16 and 3.1-3.7 °C at 32.
const DefaultRecircPasses = 1

// DefaultOffsets returns a typical containment gradient: cold-aisle faces
// at supply temperature, mid positions +4 °C, hot-aisle positions +8 °C.
func DefaultOffsets() [NumAisles]units.Celsius {
	return [NumAisles]units.Celsius{Cold: 0, Mid: 4, Hot: 8}
}

// Validate reports the first invalid parameter, or nil. It exists so that
// degenerate fleets (0-node racks, duplicate node names, negative
// recirculation, mixed tick rates) fail loudly at construction instead of
// surfacing as NaN temperatures mid-run.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("fleet: 0-node rack")
	}
	if c.Duration <= 0 || !units.IsFinite(float64(c.Duration)) {
		return fmt.Errorf("fleet: bad duration %v", c.Duration)
	}
	if !units.IsFinite(float64(c.Supply)) {
		return fmt.Errorf("fleet: non-finite supply temperature %v", c.Supply)
	}
	for a, off := range c.AisleOffsets {
		if !units.IsFinite(float64(off)) {
			return fmt.Errorf("fleet: non-finite %v-aisle offset %v", Aisle(a), off)
		}
	}
	if c.Recirc < 0 || !units.IsFinite(float64(c.Recirc)) {
		return fmt.Errorf("fleet: bad recirculation coefficient %v", c.Recirc)
	}
	if c.RecircPasses < 0 {
		return fmt.Errorf("fleet: negative recirculation passes %d", c.RecircPasses)
	}
	names := make(map[string]int, len(c.Nodes))
	tick := c.Nodes[0].Config.Tick
	for i, n := range c.Nodes {
		if n.Name == "" {
			return fmt.Errorf("fleet: node %d has no name", i)
		}
		if prev, dup := names[n.Name]; dup {
			return fmt.Errorf("fleet: duplicate node name %q (nodes %d and %d)", n.Name, prev, i)
		}
		names[n.Name] = i
		if n.Aisle < 0 || n.Aisle >= NumAisles {
			return fmt.Errorf("fleet: node %q in unknown aisle %d", n.Name, int(n.Aisle))
		}
		if n.Slot < 0 {
			return fmt.Errorf("fleet: node %q at negative slot %d", n.Name, n.Slot)
		}
		if n.Workload == nil {
			return fmt.Errorf("fleet: node %q has no workload factory", n.Name)
		}
		if n.Policy == nil {
			return fmt.Errorf("fleet: node %q has no policy factory", n.Name)
		}
		if n.Config.Tick != tick {
			// Rack power aggregation sums per-tick series across nodes;
			// mixed tick rates cannot align.
			return fmt.Errorf("fleet: node %q tick %v differs from node %q tick %v",
				n.Name, n.Config.Tick, c.Nodes[0].Name, tick)
		}
		if err := n.Config.Validate(); err != nil {
			return fmt.Errorf("fleet: node %q: %w", n.Name, err)
		}
	}
	return nil
}

// NewRack builds a heterogeneous n-node rack: aisles assigned by cycling
// through layout (slots numbered per aisle in order), workloads cycling
// through four server archetypes (noisy web square wave, Markov-modulated
// burst, spiky batch, PRBS stress), every node under the paper's full DTM
// stack. Per-node randomness derives from seed through the stats.SubSeed
// mixing hash, so adjacent nodes run decorrelated streams. The returned
// config uses Table I platforms, the default aisle offsets, a one-hour
// horizon, and no recirculation; callers adjust fields before Run.
func NewRack(n int, layout []Aisle, seed int64) (Config, error) {
	if n < 1 {
		return Config{}, fmt.Errorf("fleet: rack size %d", n)
	}
	if len(layout) == 0 {
		layout = []Aisle{Cold, Mid, Hot}
	}
	for _, a := range layout {
		if a < 0 || a >= NumAisles {
			return Config{}, fmt.Errorf("fleet: unknown aisle %d in layout", int(a))
		}
	}
	nodes := make([]NodeSpec, n)
	slots := [NumAisles]int{}
	for i := 0; i < n; i++ {
		aisle := layout[i%len(layout)]
		slot := slots[aisle]
		slots[aisle]++
		nodes[i] = NodeSpec{
			Name:      fmt.Sprintf("%s-%02d", aisle, slot),
			Aisle:     aisle,
			Slot:      slot,
			Config:    sim.Default(),
			Workload:  archetype(i, stats.SubSeed(seed, int64(i))),
			Policy:    FullStack,
			WarmStart: &sim.WarmPoint{Util: 0.2, Fan: 1500},
		}
	}
	return Config{
		Nodes:        nodes,
		Supply:       24,
		AisleOffsets: DefaultOffsets(),
		Duration:     3600,
	}, nil
}

// FullStack is the PolicyFactory for the paper's complete proposal
// (R-coord + A-T_ref + SS_fan) — the default DTM that NewRack gives every
// node.
func FullStack(cfg sim.Config) (sim.Policy, error) {
	d, err := core.NewFullStack(cfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// archetype returns the i-th node's workload factory: four server roles
// cycled across the rack, each seeded with its own decorrelated stream.
func archetype(i int, seed int64) WorkloadFactory {
	switch i % 4 {
	case 0: // web front: the paper's square wave plus demand noise
		return func(cfg sim.Config) (workload.Generator, error) {
			return workload.NewNoisy(workload.PaperSquare(400), 0.04, cfg.Tick, seed)
		}
	case 1: // bursty service: Markov-modulated busy/idle
		return func(cfg sim.Config) (workload.Generator, error) {
			return workload.Markov{
				IdleU: 0.15, BusyU: 0.85, Dwell: 45,
				PIdleToBusy: 0.25, PBusyToIdle: 0.2, Seed: seed,
			}, nil
		}
	case 2: // batch node: steady base with periodic full-load spikes
		return func(cfg sim.Config) (workload.Generator, error) {
			noisy, err := workload.NewNoisy(workload.Constant{U: 0.65}, 0.05, cfg.Tick, seed)
			if err != nil {
				return nil, err
			}
			return workload.NewSpiky(noisy, workload.PeriodicSpikes(200, 500, 30, 1.0, 6))
		}
	default: // stress/identification: pseudo-random binary excitation
		return func(cfg sim.Config) (workload.Generator, error) {
			return workload.PRBS{Low: 0.2, High: 0.8, Dwell: 90, Seed: seed}, nil
		}
	}
}

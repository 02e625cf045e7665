// Package scenario is the unified experiment surface of the repository:
// one declarative Spec describes any simulation the other layers can run —
// a single closed-loop server, a batch of independent jobs, a rack with a
// shared inlet field, the multicore three-controller scenario, or the
// Fig. 1 telemetry probe — and Run executes it on its kind's engine and
// returns one normalized Outcome.
//
// A Spec is plain data: platform configurations are embedded verbatim
// (sim.Config, fleet parameters), while kinds, workloads and policies are
// names from a closed vocabulary (see vocab.go) with scalar parameters and
// an explicit seed. Plain data buys two things:
//
//   - every experiment entry point (cmd/experiments, scenariod and the
//     spec files under specs/) shares one shape instead of growing its
//     own XxxConfig;
//   - a Spec canonicalizes to stable JSON, so its SHA-256 content hash
//     keys a persistent result store (store.go) and Sweep resumes
//     incrementally instead of recomputing finished cells.
//
// The paper's runs (Table III, Figs. 1 and 3–5, the fault run) are spec
// files under specs/; internal/experiments only folds their Outcomes
// into the paper's numbers.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/units"
)

// The scenario kinds, the keys of kindTable.
const (
	// KindSingle runs exactly one job on the plain engine (sim.Run).
	KindSingle = "single"
	// KindBatch runs the jobs concurrently as one warm sim.Lockstep
	// batch; every job runs on the spec's Base platform.
	KindBatch = "batch"
	// KindLockstep is an alias of KindBatch. The kind is part of a spec's
	// store key, so it stays in the vocabulary for the specs that name it
	// (specs/table3.json, and the sweep and Monte Carlo tables built from
	// it) to keep their keys.
	KindLockstep = "lockstep"
	// KindFleet runs a rack through fleet.Run (shared inlet field,
	// recirculation fixed point).
	KindFleet = "fleet"
	// KindFleetCoord runs the same rack under the rack-level global
	// coordinator (fleet.RunCoordinated): thermal-aware load placement
	// plus a Table II-style global budget arbitration layered over the
	// warm-lockstep fixed point. It reads the Fleet block like KindFleet;
	// the coordinator's one knob, its power budget, travels in
	// Spec.Params (see coordParams), so it participates in the store
	// identity hash.
	KindFleetCoord = "fleetcoord"
	// KindMulticore runs the three-controller N-core scenario through
	// multicore.Run.
	KindMulticore = "multicore"
	// KindFaultSweep is one cell of a non-ideal-sensing campaign: the spec
	// carries exactly one target stack — a Jobs list (batch engine) or an
	// explicit-node Fleet block (fleet engine; coordinated when
	// Params["coordinated"] is 1) — with at least one enabled FaultSpec.
	// The runner executes the target with recording forced on, folds the
	// per-tick traces into pathology metrics (MetricMaxViolWindow,
	// MetricLatchFrac), and strips the series again unless the spec asks
	// for them, so a cell stays store-light. Fault-free baselines are plain
	// existing-kind specs — their store keys do not change.
	KindFaultSweep = "faultsweep"
	// KindFig1 is the paper's Fig. 1 telemetry probe: a CPU-utilization
	// step read open loop through the I2C power-sensor path, showing the
	// ~10 s measurement lag. Its step time and bus contention travel in
	// Params.
	KindFig1 = "fig1"
)

// Params carries a factory's scalar parameters. Values are float64 —
// integers up to 2^53 survive exactly; seeds, which need all 64 bits,
// travel in FactoryRef.Seed instead.
type Params map[string]float64

// Get returns the parameter or the default when absent.
func (p Params) Get(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Keys returns the parameter names in sorted order.
func (p Params) Keys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FactoryRef names a workload or policy factory plus its
// parameters. The referenced factory rebuilds the exact generator or
// policy on every run, so a ref is as deterministic as the code behind it.
type FactoryRef struct {
	// Name is the table key (see Workloads / Policies for the list).
	Name string `json:"name"`
	// Seed is the factory's random seed, carried as int64 so mixing-hash
	// seeds (stats.SubSeed) keep all 64 bits. Zero for seedless factories.
	Seed int64 `json:"seed,omitempty"`
	// Params are the factory's scalar parameters.
	Params Params `json:"params,omitempty"`
}

// FaultSpec declaratively describes the non-ideal-sensing chain injected
// into a job's or fleet node's sensor path. Two groups of stages compose:
// silicon-side error sources measured by Rotem et al. (placement offset
// growing with instantaneous power, fixed calibration bias, slew-limited
// tracking) applied before the ADC/transport chain, and transport-side
// faults (a stuck interval plus a sustained dropout rate) applied after
// it. The zero value injects nothing; every field participates in the
// store identity hash, so Validate rejects fields that would hash without
// shaping the run (see validate).
type FaultSpec struct {
	// StuckAt / StuckLen wedge the sensor output from StuckAt for
	// StuckLen seconds. StuckLen <= 0 disables the stuck stage.
	StuckAt  units.Seconds `json:"stuck_at,omitempty"`
	StuckLen units.Seconds `json:"stuck_len,omitempty"`
	// DropoutRate is the per-sample probability a reading is lost;
	// DropoutSeed decides which ones. Rate 0 disables the stage.
	DropoutRate float64 `json:"dropout_rate,omitempty"`
	DropoutSeed int64   `json:"dropout_seed,omitempty"`
	// PlacementCoeff makes the sensor read low by Coeff x instantaneous
	// CPU power (degC/W) — the sensor-to-hotspot placement error. 0
	// disables the stage.
	PlacementCoeff float64 `json:"placement_coeff,omitempty"`
	// CalibSigma draws a fixed per-sensor calibration offset from
	// N(0, sigma^2) seeded by CalibSeed (via stats.SubSeed). 0 disables
	// the stage.
	CalibSigma float64 `json:"calib_sigma,omitempty"`
	CalibSeed  int64   `json:"calib_seed,omitempty"`
	// SlewLimitCPerS bounds how fast the reported temperature can move
	// (degC/s); fast transients are under-reported until the reading
	// catches up. 0 disables the stage.
	SlewLimitCPerS float64 `json:"slew_limit_c_per_s,omitempty"`
	// AddedLagS inserts an extra transport delay after the base chain —
	// the retry/arbitration latency of a degraded I2C segment (each extra
	// second is ~2 sensors' worth of bus occupancy under sensor.DefaultBus).
	// 0 disables the stage.
	AddedLagS units.Seconds `json:"added_lag_s,omitempty"`
}

// enabled reports whether the spec injects any fault stage.
func (f *FaultSpec) enabled() bool {
	return f != nil && (f.StuckLen > 0 || f.DropoutRate > 0 ||
		f.PlacementCoeff > 0 || f.CalibSigma > 0 || f.SlewLimitCPerS > 0 ||
		f.AddedLagS > 0)
}

// validate rejects fault blocks that would either simulate garbage
// (out-of-range or non-finite fields) or perturb the content hash without
// shaping the run (inert blocks — the same cell-splitting hazard as a
// populated block a kind ignores). Called on every non-nil FaultSpec.
func (f *FaultSpec) validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"stuck_at", float64(f.StuckAt)},
		{"stuck_len", float64(f.StuckLen)},
		{"dropout_rate", f.DropoutRate},
		{"placement_coeff", f.PlacementCoeff},
		{"calib_sigma", f.CalibSigma},
		{"slew_limit_c_per_s", f.SlewLimitCPerS},
		{"added_lag_s", float64(f.AddedLagS)},
	} {
		if !units.IsFinite(c.v) {
			return fmt.Errorf("non-finite %s %v", c.name, c.v)
		}
		if c.v < 0 {
			return fmt.Errorf("negative %s %v", c.name, c.v)
		}
	}
	if f.DropoutRate >= 1 {
		return fmt.Errorf("dropout_rate %v outside [0, 1)", f.DropoutRate)
	}
	if !f.enabled() {
		return fmt.Errorf("inert fault block (no stage enabled; drop the Faults field instead — it would split the store cell)")
	}
	// Per-stage inert fields: set, hashed, but the stage they parameterize
	// is disabled, so two semantically identical scenarios would occupy
	// different store cells.
	if f.StuckAt != 0 && f.StuckLen <= 0 {
		return fmt.Errorf("inert stuck_at %v (stuck_len is 0, the stuck stage is disabled)", f.StuckAt)
	}
	if f.DropoutSeed != 0 && f.DropoutRate == 0 {
		return fmt.Errorf("inert dropout_seed %d (dropout_rate is 0, the dropout stage is disabled)", f.DropoutSeed)
	}
	if f.CalibSeed != 0 && f.CalibSigma == 0 {
		return fmt.Errorf("inert calib_seed %d (calib_sigma is 0, the calibration stage is disabled)", f.CalibSeed)
	}
	return nil
}

// JobSpec is one independent closed-loop run within a single/batch/
// lockstep scenario.
type JobSpec struct {
	// Name labels the job's unit in the Outcome (defaults to the built
	// policy's name).
	Name string `json:"name,omitempty"`
	// Workload names the demand generator. Required.
	Workload FactoryRef `json:"workload"`
	// Policy names the DTM under test. Required.
	Policy FactoryRef `json:"policy"`
	// WarmStart optionally starts the platform at thermal steady state.
	WarmStart *sim.WarmPoint `json:"warm_start,omitempty"`
	// Faults optionally injects the telemetry fault chain.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// FleetNode is one explicit rack position in a fleet scenario. It runs
// on the spec's Base platform with its inlet as the ambient.
type FleetNode struct {
	Name string `json:"name"`
	// Aisle is "cold", "mid" or "hot".
	Aisle string `json:"aisle"`
	// Slot is the node's depth along its aisle's airflow path.
	Slot int `json:"slot"`
	// Workload and Policy name the node's generators. Required.
	Workload FactoryRef `json:"workload"`
	Policy   FactoryRef `json:"policy"`
	// WarmStart optionally starts the node at a thermal operating point.
	WarmStart *sim.WarmPoint `json:"warm_start,omitempty"`
	// Faults optionally injects the non-ideal-sensing chain into this
	// node's sensor path. The faulted chain persists across recirculation
	// relaxation passes and coordinator rounds (the warm lockstep resets
	// stage state between passes, so every pass replays the same fault).
	Faults *FaultSpec `json:"faults,omitempty"`
}

// FleetSpec describes a rack scenario: either a generated heterogeneous
// rack (Size > 0, via fleet.NewRack) or an explicit node list.
type FleetSpec struct {
	// Size > 0 generates a fleet.NewRack rack with the given layout
	// pattern and root seed; Nodes must then be empty.
	Size   int      `json:"size,omitempty"`
	Layout []string `json:"layout,omitempty"` // aisle names, cycled
	Seed   int64    `json:"seed,omitempty"`
	// Nodes is the explicit rack population when Size == 0.
	Nodes []FleetNode `json:"nodes,omitempty"`
	// Segments declares shared telemetry buses over explicit nodes: one
	// segment failure spec hits every member node's sensor chain (every
	// replica, when voting is armed) simultaneously. Only meaningful —
	// and only accepted — with an explicit Nodes list.
	Segments []BusSegment `json:"segments,omitempty"`

	// Supply is the CRAC supply temperature; zero means 24 °C (the
	// supply fleet.NewRack sets).
	Supply units.Celsius `json:"supply,omitempty"`
	// AisleOffsets is added to Supply per aisle position (cold, mid,
	// hot); nil means fleet.DefaultOffsets.
	AisleOffsets *[3]units.Celsius `json:"aisle_offsets,omitempty"`
	// Recirc / RecircPasses mirror fleet.Config's recirculation controls.
	// RecircPasses may not exceed the rack's node count: a rack never has
	// more slot levels than nodes, and a pass past the deepest aisle's
	// slot levels - 1 steps no lane.
	Recirc       units.KPerW `json:"recirc,omitempty"`
	RecircPasses int         `json:"recirc_passes,omitempty"`
}

// MulticoreSpec describes the three-controller four-core scenario. It
// runs on multicore's geometry, scaled to the Base platform, at
// multicore.Run's set-point.
type MulticoreSpec struct {
	Workload   FactoryRef `json:"workload"`
	Skewed     bool       `json:"skewed,omitempty"`
	Coordinate bool       `json:"coordinate,omitempty"`
}

// Spec is the declarative description of one experiment scenario. It is
// plain data end to end: marshal it, hash it, store it, rebuild the exact
// run from it.
type Spec struct {
	// Kind selects the runner (see the Kind constants).
	Kind string `json:"kind"`
	// Name labels the scenario in stores and listings (not semantic for
	// execution, but part of the identity hash: two differently named
	// scenarios are different cells).
	Name string `json:"name,omitempty"`
	// Base is the platform configuration every job and node runs on;
	// nil means sim.Default().
	Base *sim.Config `json:"base,omitempty"`
	// Duration is the simulated horizon, shared by every job/node.
	Duration units.Seconds `json:"duration,omitempty"`
	// Jobs populate single/batch/lockstep scenarios.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// Fleet populates fleet scenarios.
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Multicore populates multicore scenarios.
	Multicore *MulticoreSpec `json:"multicore,omitempty"`
	// Params carries the kind's scalar knobs (fleetcoord, faultsweep,
	// fig1); kinds that read none reject any.
	Params Params `json:"params,omitempty"`
	// Voting arms redundant sensing on every job/node: each sensor chain
	// is replicated into independently seeded copies fused by median
	// voting (sensor.Redundant), and every policy gains the fail-safe
	// fan-floor escalation. Nil runs the ordinary single-chain stack.
	// Semantic — it changes what every unit measures — so it participates
	// in the identity hash; kinds that ignore it reject it (Validate).
	Voting *VotingSpec `json:"voting,omitempty"`
	// Record captures full per-tick series into the Outcome (memory- and
	// store-heavy for long runs). It is semantic: it changes the Outcome's
	// content, so it participates in the identity hash.
	Record bool `json:"record,omitempty"`

	// Workers caps engine concurrency (0 = GOMAXPROCS). Results are
	// bit-identical at any value, so Workers is an execution knob, not
	// part of the scenario's identity: it is excluded from JSON and from
	// the content hash.
	Workers int `json:"-"`
}

// base returns the effective shared platform configuration.
func (s *Spec) base() sim.Config {
	if s.Base != nil {
		return *s.Base
	}
	return sim.Default()
}

// Validate reports the first structural problem, or nil. Every name a
// spec carries and every Params map is checked against its vocabulary
// entry (see vocab.go) without invoking any factory, so a typo fails
// before any simulation.
func (s *Spec) Validate() error {
	k, ok := kindTable[s.Kind]
	if !ok {
		return fmt.Errorf("scenario: unknown kind %q (known: %v)", s.Kind, names(kindTable))
	}
	if !(s.Duration > 0) {
		return fmt.Errorf("scenario: non-positive duration %v", s.Duration)
	}
	// The engines count ticks in an int, which a longer horizon would
	// wrap to a negative count that runs nothing.
	if tick := s.base().Tick; !(float64(s.Duration)/float64(tick) < math.MaxInt) {
		return fmt.Errorf("scenario: duration %v s at a %v s tick is more ticks than an int holds", s.Duration, tick)
	}
	if err := k.checkParams(s.Params); err != nil {
		return fmt.Errorf("scenario: %s spec: %w", s.Kind, err)
	}
	// A negative budget would fail only inside the coordinator, as a
	// failed run; the negated test refuses a NaN from a Go caller too. A
	// zero budget would run as an absent one under another store key.
	if b, ok := s.Params["power_budget_w"]; ok && !(b >= 0) {
		return fmt.Errorf("scenario: %s spec: power_budget_w %v is negative", s.Kind, b)
	} else if ok && b == 0 {
		return fmt.Errorf("scenario: %s spec: power_budget_w 0 is no budget; omit the param", s.Kind)
	}
	// A populated block the kind never reads would still perturb the
	// content hash — two semantically identical scenarios would occupy
	// different store cells — so inert blocks are errors, not noise.
	switch s.Kind {
	case KindSingle, KindBatch, KindLockstep:
		if s.Fleet != nil || s.Multicore != nil {
			return fmt.Errorf("scenario: %s spec carries blocks its kind ignores (fleet/multicore)", s.Kind)
		}
	case KindFleet, KindFleetCoord:
		if len(s.Jobs) > 0 || s.Multicore != nil {
			return fmt.Errorf("scenario: %s spec carries blocks its kind ignores (jobs/multicore)", s.Kind)
		}
	case KindMulticore:
		// The multicore engine has its own per-core sensor model and
		// never reads Voting.
		if len(s.Jobs) > 0 || s.Fleet != nil || s.Voting != nil {
			return fmt.Errorf("scenario: multicore spec carries blocks its kind ignores (jobs/fleet/voting)")
		}
	case KindFaultSweep:
		if s.Multicore != nil {
			return fmt.Errorf("scenario: faultsweep spec carries a multicore block")
		}
		if err := s.validateFaultSweepParams(); err != nil {
			return err
		}
	case KindFig1:
		// The probe is open loop on the default platform: one power
		// sensor behind the bus, recorded whole or not at all.
		if len(s.Jobs) > 0 || s.Fleet != nil || s.Multicore != nil || s.Voting != nil || s.Base != nil {
			return fmt.Errorf("scenario: fig1 spec carries fields its kind ignores (jobs/fleet/multicore/voting/base)")
		}
	}
	if s.Voting != nil {
		if err := s.Voting.validate(); err != nil {
			return fmt.Errorf("scenario: voting: %w", err)
		}
	}
	switch s.Kind {
	case KindSingle, KindBatch, KindLockstep:
		if len(s.Jobs) == 0 {
			return fmt.Errorf("scenario: %s spec has no jobs", s.Kind)
		}
		if s.Kind == KindSingle && len(s.Jobs) != 1 {
			return fmt.Errorf("scenario: single spec has %d jobs", len(s.Jobs))
		}
		return s.validateJobList()
	case KindFleet, KindFleetCoord:
		if s.Fleet == nil {
			return fmt.Errorf("scenario: %s spec missing Fleet block", s.Kind)
		}
		return s.validateFleetBlock()
	case KindFaultSweep:
		if (len(s.Jobs) > 0) == (s.Fleet != nil) {
			return fmt.Errorf("scenario: faultsweep spec needs exactly one target block (jobs or fleet)")
		}
		if len(s.Jobs) > 0 {
			if err := s.validateJobList(); err != nil {
				return err
			}
			ok := false
			for i := range s.Jobs {
				ok = ok || s.Jobs[i].Faults.enabled()
			}
			if !ok {
				return fmt.Errorf("scenario: faultsweep spec has no faulted job (fault-free cells are plain %s specs)", KindBatch)
			}
		} else {
			if s.Fleet.Size > 0 {
				return fmt.Errorf("scenario: faultsweep fleet target needs explicit nodes (generated racks cannot carry per-node faults)")
			}
			if err := s.validateFleetBlock(); err != nil {
				return err
			}
			ok := len(s.Fleet.Segments) > 0
			for i := range s.Fleet.Nodes {
				ok = ok || s.Fleet.Nodes[i].Faults.enabled()
			}
			if !ok {
				return fmt.Errorf("scenario: faultsweep spec has no faulted node or segment (fault-free cells are plain %s specs)", KindFleet)
			}
		}
	case KindMulticore:
		if s.Multicore == nil {
			return fmt.Errorf("scenario: multicore spec missing Multicore block")
		}
		if err := checkRef(s.Multicore.Workload, workloadTable); err != nil {
			return fmt.Errorf("scenario: multicore workload: %w", err)
		}
	}
	return nil
}

// validateJobList runs the per-job structural checks shared by the sim
// kinds and the faultsweep target form.
func (s *Spec) validateJobList() error {
	for i, j := range s.Jobs {
		if err := checkRef(j.Workload, workloadTable); err != nil {
			return fmt.Errorf("scenario: job %d (%s) workload: %w", i, j.Name, err)
		}
		if err := checkRef(j.Policy, policyTable); err != nil {
			return fmt.Errorf("scenario: job %d (%s) policy: %w", i, j.Name, err)
		}
		if j.Faults != nil {
			if err := j.Faults.validate(); err != nil {
				return fmt.Errorf("scenario: job %d (%s) faults: %w", i, j.Name, err)
			}
		}
	}
	return nil
}

// validateFleetBlock runs the fleet-block structural checks shared by the
// fleet kinds and the faultsweep target form.
func (s *Spec) validateFleetBlock() error {
	if s.Fleet.Size > 0 && len(s.Fleet.Nodes) > 0 {
		return fmt.Errorf("scenario: fleet spec sets both Size and Nodes")
	}
	if s.Fleet.Size == 0 && len(s.Fleet.Nodes) == 0 {
		return fmt.Errorf("scenario: fleet spec has neither Size nor Nodes")
	}
	for i, n := range s.Fleet.Nodes {
		if _, err := parseAisle(n.Aisle); err != nil {
			return fmt.Errorf("scenario: fleet node %d (%s): %w", i, n.Name, err)
		}
		if err := checkRef(n.Workload, workloadTable); err != nil {
			return fmt.Errorf("scenario: fleet node %d (%s) workload: %w", i, n.Name, err)
		}
		if err := checkRef(n.Policy, policyTable); err != nil {
			return fmt.Errorf("scenario: fleet node %d (%s) policy: %w", i, n.Name, err)
		}
		if n.Faults != nil {
			if err := n.Faults.validate(); err != nil {
				return fmt.Errorf("scenario: fleet node %d (%s) faults: %w", i, n.Name, err)
			}
		}
	}
	for _, a := range s.Fleet.Layout {
		if _, err := parseAisle(a); err != nil {
			return fmt.Errorf("scenario: fleet layout: %w", err)
		}
	}
	// Every pass runs the whole pass loop, stepped lanes or not, so an
	// unbounded count would hold a worker for as long as it loops.
	nodes := s.Fleet.Size + len(s.Fleet.Nodes)
	if p := s.Fleet.RecircPasses; p < 0 || p > nodes {
		return fmt.Errorf("scenario: fleet recirc_passes %d outside [0, %d] (the rack's node count)", p, nodes)
	}
	if err := s.validateSegments(); err != nil {
		return err
	}
	return nil
}

// validateFaultSweepParams checks what the kind's params entry cannot:
// "coordinated" (exactly 1; omit it for uncoordinated targets — 0 would
// split the store cell without changing the run) selects the coordinator
// engine and needs a fleet target, and the fleetcoord knob is
// meaningless — hence rejected — without it.
func (s *Spec) validateFaultSweepParams() error {
	v, coordinated := s.Params["coordinated"]
	switch {
	case coordinated && v != 1:
		return fmt.Errorf("scenario: faultsweep coordinated = %v (must be 1; omit the key for an uncoordinated target)", v)
	case coordinated && s.Fleet == nil:
		return fmt.Errorf("scenario: coordinated faultsweep needs a fleet target")
	case !coordinated && len(s.Params) > 0:
		return fmt.Errorf("scenario: faultsweep param %q needs coordinated = 1 (inert otherwise, and it would split the store cell)", s.Params.Keys()[0])
	}
	return nil
}

// parseAisle maps an aisle name to the fleet position class.
func parseAisle(s string) (fleet.Aisle, error) {
	switch s {
	case "cold":
		return fleet.Cold, nil
	case "mid":
		return fleet.Mid, nil
	case "hot":
		return fleet.Hot, nil
	}
	return 0, fmt.Errorf("unknown aisle %q (want cold|mid|hot)", s)
}

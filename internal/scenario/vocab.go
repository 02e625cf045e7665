package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// The spec vocabulary is closed: every kind, workload and policy a Spec
// can name is an entry of one of the three tables below, and each entry
// declares what it reads — its Params keys, which of those it consumes as
// integers and, for factories, whether it reads FactoryRef.Seed. Validate
// checks every name and every Params map against its entry, so a key the
// entry never reads, a seed on a seedless factory or a fractional integer
// is refused instead of hashing into a new store cell that runs the
// defaults bit for bit. The listings (KindList, Workloads, Policies) read
// the same tables. Each factory reproduces its pre-scenario construction
// exactly, so specs that replace the old ad-hoc entry points stay
// bit-identical.

// WorkloadFactory builds a demand generator from a spec reference. cfg is
// the job's resolved platform configuration (per-tick noise overlays need
// the tick; generators must not read cfg.Ambient — demand is exogenous,
// and the fleet layer rebuilds inlets without rebuilding generators).
type WorkloadFactory func(cfg sim.Config, seed int64, p Params) (workload.Generator, error)

// PolicyFactory builds a DTM policy from a spec reference against the
// job's resolved platform configuration.
type PolicyFactory func(cfg sim.Config, seed int64, p Params) (sim.Policy, error)

// def is one table entry: its doc line, what it reads from a spec, and
// the kind runner or factory itself.
type def[F any] struct {
	doc    string
	params []string // the Params keys it reads
	ints   []string // the keys among params it consumes as integers
	seeded bool     // a factory that reads FactoryRef.Seed
	fn     F
}

// paramErr reports why the entry refuses key k with value v, or nil.
func (d def[F]) paramErr(k string, v float64) error {
	if !slices.Contains(d.params, k) {
		return fmt.Errorf("unknown param %q (known: %v)", k, d.params)
	}
	if slices.Contains(d.ints, k) && v != float64(int(v)) {
		return fmt.Errorf("param %s = %v is not an integer", k, v)
	}
	return nil
}

// checkParams rejects a key the entry never reads and a fractional value
// for a key it consumes as an integer: either would split the store cell
// without shaping the run. A valid map is ranged, not sorted, so the
// check allocates nothing; a refusal rewalks the keys in order, so the
// error names the same key on every run.
func (d def[F]) checkParams(p Params) error {
	for k, v := range p {
		if d.paramErr(k, v) != nil {
			for _, k := range p.Keys() {
				if err := d.paramErr(k, p[k]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkRef resolves a factory reference against its table, without
// invoking the factory, and checks its seed and params against the entry.
func checkRef[F any](ref FactoryRef, table map[string]def[F]) error {
	d, ok := table[ref.Name]
	if !ok {
		return fmt.Errorf("unknown factory %q (known: %v)", ref.Name, names(table))
	}
	if ref.Seed != 0 && !d.seeded {
		return fmt.Errorf("%s reads no seed (seed %d would split the store cell)", ref.Name, ref.Seed)
	}
	if err := d.checkParams(ref.Params); err != nil {
		return fmt.Errorf("%s: %w", ref.Name, err)
	}
	return nil
}

// names returns a table's entry names, sorted.
func names[F any](table map[string]def[F]) []string {
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Entry is one vocabulary entry as listings show it: the name a spec
// uses and a one-line hint of what the entry reads.
type Entry struct {
	Name string
	Doc  string
}

// entries lists a table by name, each doc line followed by what the
// entry reads.
func entries[F any](table map[string]def[F]) []Entry {
	ns := names(table)
	out := make([]Entry, len(ns))
	for i, name := range ns {
		d := table[name]
		doc := d.doc
		if len(d.params) > 0 {
			doc += "; " + strings.Join(d.params, ", ")
		}
		if len(d.ints) > 0 {
			doc += " (integer: " + strings.Join(d.ints, ", ") + ")"
		}
		if d.seeded {
			doc += "; seeded"
		}
		out[i] = Entry{Name: name, Doc: doc}
	}
	return out
}

// KindList lists the scenario kinds, sorted by name.
func KindList() []Entry { return entries(kindTable) }

// Workloads lists the workload factories, sorted by name.
func Workloads() []Entry { return entries(workloadTable) }

// Policies lists the policy factories, sorted by name.
func Policies() []Entry { return entries(policyTable) }

// LookupWorkload resolves a workload factory name.
func LookupWorkload(name string) (WorkloadFactory, bool) {
	d, ok := workloadTable[name]
	return d.fn, ok
}

// buildWorkload resolves and invokes a workload reference.
func buildWorkload(ref FactoryRef, cfg sim.Config) (workload.Generator, error) {
	f, ok := LookupWorkload(ref.Name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown workload %q", ref.Name)
	}
	gen, err := f(cfg, ref.Seed, ref.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: workload %q: %w", ref.Name, err)
	}
	return gen, nil
}

// buildPolicy resolves and invokes a policy reference.
func buildPolicy(ref FactoryRef, cfg sim.Config) (sim.Policy, error) {
	d, ok := policyTable[ref.Name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown policy %q", ref.Name)
	}
	pol, err := d.fn(cfg, ref.Seed, ref.Params)
	if err != nil {
		return nil, fmt.Errorf("scenario: policy %q: %w", ref.Name, err)
	}
	return pol, nil
}

// coordParams holds the fleet coordinator's one knob, which fleetcoord
// reads from Params (a coordinated faultsweep cell passes it through).
// The coordinator's other settings are constants in fleet's
// coordinator.go.
var coordParams = []string{
	"power_budget_w", // global rack power budget (W); absent = arbitration off
}

// kindTable holds the scenario kinds and their runners.
var kindTable = map[string]def[func(Spec) (*Outcome, error)]{
	KindSingle:   {doc: "one closed-loop run (sim.Run)", fn: runSingle},
	KindBatch:    {doc: "concurrent jobs (sim.Lockstep)", fn: runSimBatch},
	KindLockstep: {doc: "alias of batch, kept for its store keys", fn: runSimBatch},
	KindFleet:    {doc: "rack with shared inlet field (fleet.Run)", fn: runFleet},
	KindFleetCoord: {doc: "rack under the global coordinator (fleet.RunCoordinated)",
		params: coordParams, fn: runFleetCoord},
	KindMulticore: {doc: "three-controller N-core run (multicore.Run)", fn: runMulticore},
	KindFaultSweep: {doc: "one non-ideal-sensing campaign cell (faulted target + pathology metrics)",
		params: append([]string{"coordinated"}, coordParams...), fn: runFaultSweep},
	KindFig1: {doc: "Fig. 1 telemetry-lag probe (open-loop power sensor, default platform)",
		params: []string{"step_time", "bus_base_latency", "bus_transfer_time", "bus_sensors"},
		ints:   []string{"bus_sensors"}, fn: runFig1},
}

// workloadTable holds every workload the repository's experiment surfaces
// use, under stable names.
var workloadTable = map[string]def[WorkloadFactory]{
	"constant": {doc: "constant utilization", params: []string{"u"},
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			return workload.Constant{U: units.Utilization(p.Get("u", 0.5))}, nil
		}},
	"square": {doc: "the paper's 0.1/0.7 square wave", params: []string{"period"},
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			return workload.PaperSquare(units.Seconds(p.Get("period", 600))), nil
		}},
	"noisy-square": {doc: "square wave plus per-tick Gaussian noise", params: []string{"period", "sigma"}, seeded: true,
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			return workload.NewNoisy(
				workload.PaperSquare(units.Seconds(p.Get("period", 600))),
				p.Get("sigma", 0.04), cfg.Tick, seed)
		}},
	"prbs": {doc: "pseudo-random binary sequence", params: []string{"low", "high", "dwell"}, seeded: true,
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			return workload.PRBS{
				Low:   units.Utilization(p.Get("low", 0.1)),
				High:  units.Utilization(p.Get("high", 0.7)),
				Dwell: units.Seconds(p.Get("dwell", 60)),
				Seed:  seed,
			}, nil
		}},
	"markov": {doc: "two-state idle/busy Markov chain",
		params: []string{"idle_u", "busy_u", "dwell", "p_idle_busy", "p_busy_idle"}, seeded: true,
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			return workload.Markov{
				IdleU:       units.Utilization(p.Get("idle_u", 0.1)),
				BusyU:       units.Utilization(p.Get("busy_u", 0.8)),
				Dwell:       units.Seconds(p.Get("dwell", 30)),
				PIdleToBusy: p.Get("p_idle_busy", 0.2),
				PBusyToIdle: p.Get("p_busy_idle", 0.3),
				Seed:        seed,
			}, nil
		}},
	// The batch-node archetype: noisy constant base with periodic
	// full-load spikes (the fleet layer's "batch" role).
	"spiky-batch": {doc: "noisy constant load with periodic spikes",
		params: []string{"u", "sigma", "first", "every", "len", "level", "count"}, ints: []string{"count"}, seeded: true,
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			noisy, err := workload.NewNoisy(
				workload.Constant{U: units.Utilization(p.Get("u", 0.65))},
				p.Get("sigma", 0.05), cfg.Tick, seed)
			if err != nil {
				return nil, err
			}
			return workload.NewSpiky(noisy, workload.PeriodicSpikes(
				units.Seconds(p.Get("first", 200)),
				units.Seconds(p.Get("every", 500)),
				units.Seconds(p.Get("len", 30)),
				units.Utilization(p.Get("level", 1.0)),
				int(p.Get("count", 6))))
		}},
	// The Table III evaluation trace: noisy square wave plus four abrupt
	// full-load bursts per period at fixed phase fractions (two out of
	// each phase), covering any period/duration combination.
	"table3": {doc: "the Table III trace (noisy square wave plus spikes)",
		params: []string{"period", "sigma", "spike_len", "duration"}, seeded: true,
		fn: func(cfg sim.Config, seed int64, p Params) (workload.Generator, error) {
			period := units.Seconds(p.Get("period", 600))
			base := workload.PaperSquare(period)
			noisy, err := workload.NewNoisy(base, p.Get("sigma", 0.04), cfg.Tick, seed)
			if err != nil {
				return nil, err
			}
			spikeLen := units.Seconds(p.Get("spike_len", 0))
			if spikeLen <= 0 {
				return noisy, nil
			}
			duration := units.Seconds(p.Get("duration", 7200))
			var spikes []workload.Spike
			periods := int(float64(duration)/float64(period)) + 1
			offsets := []float64{0.15, 0.30, 0.65, 0.80}
			for q := 0; q < periods; q++ {
				start := units.Seconds(float64(q)) * period
				for _, frac := range offsets {
					spikes = append(spikes, workload.Spike{
						Start:    start + units.Seconds(frac*float64(period)),
						Duration: spikeLen,
						Level:    1.0,
					})
				}
			}
			return workload.NewSpiky(noisy, spikes)
		}},
}

// policyTable holds the five Table III solutions ("rcoord" takes the
// set-point as a parameter; Table III uses 75 °C), a fixed fan, and the
// stability experiments' fan-only policies (Figs. 3 and 4): a bare fan
// controller with the cap held open.
var policyTable = map[string]def[PolicyFactory]{
	"none": {doc: "w/o coordination baseline",
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			return core.NewUncoordinated(cfg)
		}},
	"ecoord": {doc: "energy-aware coordination of [6]",
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			return core.NewECoordPolicy(cfg)
		}},
	"rcoord": {doc: "rule-based coordination", params: []string{"ref_temp"},
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			return core.NewRuleCoord(cfg, units.Celsius(p.Get("ref_temp", 75)))
		}},
	"atref": {doc: "R-coord + adaptive set-point",
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			return core.NewRuleCoordAdaptiveRef(cfg)
		}},
	"full": {doc: "complete proposal (R-coord+A-Tref+SSfan)",
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			return core.NewFullStack(cfg)
		}},
	"hold": {doc: "constant fan speed", params: []string{"fan"},
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			return sim.HoldPolicy{Fan: units.RPM(p.Get("fan", 4000))}, nil
		}},
	"pid-fixed": {doc: "fixed-gain PID fan loop (region 0|1)", params: []string{"region", "ref_temp"}, ints: []string{"region"},
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			regions := core.DefaultRegions()
			region := int(p.Get("region", 0))
			if region < 0 || region >= len(regions) {
				return nil, fmt.Errorf("region %d outside gain schedule (%d regions)", region, len(regions))
			}
			r := regions[region]
			pid, err := control.NewPID(control.PIDConfig{
				Gains: r.Gains, RefSpeed: r.RefSpeed,
				RefTemp: units.Celsius(p.Get("ref_temp", 68)),
				Limits:  control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed},
			})
			if err != nil {
				return nil, err
			}
			fan, err := core.FanOnly(pid)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("pid@%.0frpm", float64(r.RefSpeed))
			return core.NewFanOnlyPolicy(name, fan, core.DefaultFanInterval, cfg)
		}},
	"adaptive-pid": {doc: "gain-scheduled PID fan loop", params: []string{"ref_temp"},
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			a, err := control.NewAdaptivePID(core.DefaultRegions(),
				units.Celsius(p.Get("ref_temp", 68)),
				control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed})
			if err != nil {
				return nil, err
			}
			fan, err := core.FanOnly(a)
			if err != nil {
				return nil, err
			}
			return core.NewFanOnlyPolicy("adaptive-pid", fan, core.DefaultFanInterval, cfg)
		}},
	"deadzone": {doc: "band fan controller", params: []string{"band_lo", "band_hi", "step"},
		fn: func(cfg sim.Config, seed int64, p Params) (sim.Policy, error) {
			dz, err := control.NewDeadzone(
				units.Celsius(p.Get("band_lo", 74.4)),
				units.Celsius(p.Get("band_hi", 74.6)),
				units.RPM(p.Get("step", 500)),
				control.Limits{Min: cfg.FanMinSpeed, Max: cfg.FanMaxSpeed})
			if err != nil {
				return nil, err
			}
			return core.NewFanOnlyPolicy("deadzone", dz, core.DefaultFanInterval, cfg)
		}},
}

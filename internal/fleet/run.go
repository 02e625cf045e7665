package fleet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// NodeResult is one server's outcome within the rack.
type NodeResult struct {
	Name  string
	Aisle Aisle
	Slot  int
	// Inlet is the node's resolved inlet (ambient) temperature: supply +
	// aisle offset + recirculated upstream exhaust.
	Inlet   units.Celsius
	Metrics sim.Metrics
	// Traces is the node's full recorded trace set; nil unless
	// Config.Record.
	Traces trace.Set
}

// AisleMetrics aggregates the nodes of one aisle position.
type AisleMetrics struct {
	Nodes         int
	ViolationFrac float64 // tick-weighted across the aisle's nodes
	FanEnergy     units.Joule
	CPUEnergy     units.Joule
	MaxJunction   units.Celsius
	MeanInlet     units.Celsius
}

// Result is the rack-level outcome of a fleet run. All aggregates are
// computed in node order, so two runs of the same Config are bit-identical
// regardless of Workers.
type Result struct {
	Nodes  []NodeResult
	Aisles [NumAisles]AisleMetrics

	// Ticks is the per-node tick count (all nodes share tick and horizon).
	Ticks int
	// ViolationFrac is the rack's tick-weighted deadline-violation
	// fraction.
	ViolationFrac float64
	FanEnergy     units.Joule
	CPUEnergy     units.Joule
	TotalEnergy   units.Joule
	// FanEnergyShare is FanEnergy / TotalEnergy — the subsystem energy
	// proportionality number the fleet view exists to expose.
	FanEnergyShare float64
	MaxJunction    units.Celsius
	TimeAboveLimit units.Seconds // summed node-seconds above TLimit

	// PeakRackPower is the maximum over ticks of the rack's summed CPU+fan
	// power — the provisioning number a PDU sees, which node-level peaks
	// understate when they do not align in time.
	PeakRackPower units.Watt
	MeanRackPower units.Watt

	// Passes is how many relaxation passes resolved the recirculation
	// fixed point (1 when Recirc is 0). A pass steps only the nodes whose
	// result can still change the outcome (see Run), so it is not a
	// measure of simulation work; LaneTicks is.
	Passes int
	// LaneTicks is the number of server-ticks the relaxation stepped:
	// Ticks times the nodes each pass stepped, summed over passes.
	LaneTicks int
}

// Inlets resolves the shared inlet-temperature field given each node's
// mean dissipated power from a previous pass (zeros for the first pass):
// supply + aisle offset + Recirc × (summed mean power of same-aisle nodes
// at strictly lower slots). The result is deterministic in node order.
func (c Config) Inlets(meanPower []units.Watt) []units.Celsius {
	inlets := make([]units.Celsius, len(c.Nodes))
	for i, n := range c.Nodes {
		inlet := c.Supply + c.AisleOffsets[n.Aisle]
		if c.Recirc > 0 && meanPower != nil {
			for j, m := range c.Nodes {
				if j != i && m.Aisle == n.Aisle && m.Slot < n.Slot {
					inlet += units.Celsius(float64(c.Recirc) * float64(meanPower[j]))
				}
			}
		}
		inlets[i] = inlet
	}
	return inlets
}

// buildJobs materializes the rack as one lockstep batch: per node, the
// spec's config with its ambient set to the resolved pass-0 inlet, a fresh
// workload generator, and a fresh policy (batch jobs must not share
// mutable state). Every pass records the power series the rack aggregation
// consumes — the lockstep engine's recording buffers are preallocated once
// and reset per pass, so this costs appends into warm storage and only the
// final pass's series survives into the result. Full trace capture (when
// Config.Record asks) is toggled per pass with Lockstep.SetRecord from
// prepare.
func (c Config) buildJobs(inlets []units.Celsius) ([]sim.Job, error) {
	jobs := make([]sim.Job, len(c.Nodes))
	for i, n := range c.Nodes {
		cfg := n.Config
		cfg.Ambient = inlets[i]
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: node %q at inlet %v: %w", n.Name, inlets[i], err)
		}
		gen, err := n.Workload(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %q workload: %w", n.Name, err)
		}
		pol, err := n.Policy(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %q policy: %w", n.Name, err)
		}
		server := sim.Factory(cfg)
		if n.Server != nil {
			hook, hookCfg := n.Server, cfg
			server = func() (*sim.PhysicalServer, error) { return hook(hookCfg) }
		}
		jobs[i] = sim.Job{
			Name:   n.Name,
			Server: server,
			Config: sim.RunConfig{
				Duration:    c.Duration,
				Workload:    gen,
				Policy:      pol,
				RecordPower: true,
				WarmStart:   n.WarmStart,
			},
		}
	}
	return jobs, nil
}

// rack is one warm rack instance: the lockstep batch plus the relaxation
// bookkeeping, reusable across whole relaxations. Run resolves a single
// fixed point on one; the coordinator (coordinator.go) re-enters relax
// once per coordination round after installing its plan with apply.
type rack struct {
	cfg Config
	ls  *sim.Lockstep
	// plan is the coordinator's actuation the lanes run under: demand
	// shares and the cap ceilings that wrap each freshly built node policy.
	plan coordPlan
	// reach is, per node, the number of distinct slots above it in its
	// aisle: the number of later passes its power can still propagate
	// through.
	reach []int
	// last is, per node, the inputs of the lane's last run; active marks
	// the lanes the current pass steps.
	last   []laneRun
	active []bool

	meanPower []units.Watt
}

// laneInputs is everything a lane's result depends on that changes
// between relaxation passes and coordinator rounds.
type laneInputs struct {
	inlet   units.Celsius
	share   float64
	capCeil units.Utilization // 0: unconstrained
	record  bool
}

// laneRun records what a lane is homed at: the inputs of its last run,
// or, before its first run (ran false), the pass-0 inlet and the pristine
// unwrapped policy buildJobs gave it.
type laneRun struct {
	laneInputs
	ran bool
}

// newRack validates the config and builds the warm instance: servers
// constructed and workload schedules compiled exactly once.
func newRack(c Config) (*rack, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	inlets := c.Inlets(nil)
	jobs, err := c.buildJobs(inlets)
	if err != nil {
		return nil, err
	}
	ls, err := sim.NewLockstep(jobs, sim.BatchOptions{Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	n := len(c.Nodes)
	r := &rack{
		cfg:       c,
		ls:        ls,
		plan:      identityPlan(n),
		reach:     make([]int, n),
		last:      make([]laneRun, n),
		active:    make([]bool, n),
		meanPower: make([]units.Watt, n),
	}
	for i, node := range c.Nodes {
		above := map[int]bool{}
		for _, m := range c.Nodes {
			if m.Aisle == node.Aisle && m.Slot > node.Slot {
				above[m.Slot] = true
			}
		}
		r.reach[i] = len(above)
		r.last[i].laneInputs = laneInputs{inlet: inlets[i], share: 1}
	}
	return r, nil
}

// prepare decides which lanes the next pass steps and rehomes them. A lane
// steps when its reach is at least minReach and its inputs differ from its
// last run; a lane that keeps its inputs would reproduce its last result
// bit for bit. A stepping lane is re-homed at its inlet with a fresh
// policy built against that operating point (the DTM's release-speed
// model reads the ambient) and wrapped in the plan's cap ceiling — unless it
// has never run and is already homed there. Servers, schedules and
// recording buffers are reused. prepare returns the number of lanes to
// step.
func (r *rack) prepare(inlets []units.Celsius, record bool, minReach int) (int, error) {
	stepped := 0
	for i, n := range r.cfg.Nodes {
		want := laneInputs{inlet: inlets[i], share: r.plan.shares[i], capCeil: r.plan.capCeil(i), record: record}
		last := &r.last[i]
		r.active[i] = r.reach[i] >= minReach && (!last.ran || last.laneInputs != want)
		if !r.active[i] {
			continue
		}
		stepped++
		r.ls.SetRecord(i, want.record)
		pristine := !last.ran && last.inlet == want.inlet && last.capCeil == want.capCeil
		*last = laneRun{laneInputs: want, ran: true}
		if pristine {
			continue
		}
		if err := r.ls.SetAmbient(i, want.inlet); err != nil {
			return 0, fmt.Errorf("fleet: node %q at inlet %v: %w", n.Name, want.inlet, err)
		}
		cfg := n.Config
		cfg.Ambient = want.inlet
		pol, err := n.Policy(cfg)
		if err != nil {
			return 0, fmt.Errorf("fleet: node %q policy: %w", n.Name, err)
		}
		if want.capCeil > 0 {
			pol = &limitedPolicy{inner: pol, capCeil: want.capCeil}
		}
		if err := r.ls.SetPolicy(i, pol); err != nil {
			return 0, fmt.Errorf("fleet: node %q: %w", n.Name, err)
		}
	}
	return stepped, nil
}

// passBudget resolves the relaxation schedule: the number of whole-rack
// passes.
func (c Config) passBudget() int {
	passes := 1
	if c.Recirc > 0 {
		if c.RecircPasses > 0 {
			passes += c.RecircPasses
		} else {
			passes += DefaultRecircPasses
		}
	}
	return passes
}

// Run simulates the rack. With Recirc > 0 it relaxes the recirculation
// fixed point: pass 1 runs every node at its position inlet, each further
// pass recomputes the inlet field from the previous pass's mean node
// powers and re-simulates. The whole relaxation executes on one warm
// lockstep instance — servers are built and workload schedules compiled
// once, and each pass re-steps the batch with updated inlets and fresh
// policies — so extra passes cost simulation time only, no construction.
// A pass steps only the nodes whose result can still change the outcome
// (see relax). Results are bit-identical to rebuilding and re-running
// every node every pass from scratch, and for any Workers value.
func Run(c Config) (*Result, error) {
	r, err := newRack(c)
	if err != nil {
		return nil, err
	}
	return r.relax(c.Record)
}

// relax resolves one whole recirculation fixed point on the warm rack
// instance, starting from the position-only (pass-0) inlet field under the
// current plan. record toggles full trace capture on the final pass, and
// keeps the node traces in the result. relax is re-entrant: the
// coordinator calls it once per round, and a repeat call with an unchanged
// plan reproduces the previous result bit for bit.
//
// A pass steps a node only when its inputs (inlet, demand share, cap
// ceiling, record flag) differ from its last run, which would otherwise
// reproduce its result, and when its reach is at least P-p on pass p of
// P: a node's power raises the inlets of higher slots on the next pass,
// so its pass-p result reaches the final pass only through a chain of P-p
// higher slots in its aisle. A node skipped by that rule keeps a stale
// result whose power feeds only nodes the rule skips too.
func (r *rack) relax(record bool) (*Result, error) {
	c := r.cfg
	passes := c.passBudget()
	inlets := c.Inlets(nil)
	laneTicks := 0
	var results []*sim.Result
	for p := 1; ; p++ {
		// Full trace capture costs seven extra series per node per
		// pass; only the final pass needs it.
		stepped, err := r.prepare(inlets, record && p == passes, passes-p)
		if err != nil {
			return nil, err
		}
		if results, err = r.ls.RunLanes(r.active); err != nil {
			return nil, err
		}
		laneTicks += stepped * r.ls.Ticks()
		if p == passes {
			break
		}
		for i, res := range results {
			r.meanPower[i] = units.Watt(float64(res.Metrics.CPUEnergy+res.Metrics.FanEnergy) / float64(c.Duration))
		}
		inlets = c.Inlets(r.meanPower)
	}
	out, err := c.aggregate(inlets, results, passes, record)
	if err != nil {
		return nil, err
	}
	out.LaneTicks = laneTicks
	return out, nil
}

// aggregate folds the final pass's per-node results into the rack view,
// keeping each node's traces when record is set.
func (c Config) aggregate(inlets []units.Celsius, results []*sim.Result, passes int, record bool) (*Result, error) {
	out := &Result{
		Nodes:  make([]NodeResult, len(results)),
		Passes: passes,
	}
	var rackPower []float64
	var totalTicks, totalViolations float64
	var aisleTicks, aisleViolations, aisleInlet [NumAisles]float64
	for i, r := range results {
		spec := c.Nodes[i]
		m := r.Metrics
		out.Nodes[i] = NodeResult{
			Name:    spec.Name,
			Aisle:   spec.Aisle,
			Slot:    spec.Slot,
			Inlet:   inlets[i],
			Metrics: m,
		}
		if record {
			out.Nodes[i].Traces = r.Traces
		}

		power := r.Traces.Get("total_power")
		if power == nil {
			return nil, fmt.Errorf("fleet: node %q recorded no power series", spec.Name)
		}
		if rackPower == nil {
			rackPower = make([]float64, len(power.V))
			out.Ticks = len(power.V)
		}
		if len(power.V) != len(rackPower) {
			return nil, fmt.Errorf("fleet: node %q power series length %d != %d", spec.Name, len(power.V), len(rackPower))
		}
		for k, v := range power.V {
			rackPower[k] += v
		}

		ticks := float64(m.Ticks)
		totalTicks += ticks
		totalViolations += m.ViolationFrac * ticks
		out.FanEnergy += m.FanEnergy
		out.CPUEnergy += m.CPUEnergy
		out.TimeAboveLimit += m.TimeAboveLimit
		if m.MaxJunction > out.MaxJunction {
			out.MaxJunction = m.MaxJunction
		}

		a := &out.Aisles[spec.Aisle]
		a.Nodes++
		a.FanEnergy += m.FanEnergy
		a.CPUEnergy += m.CPUEnergy
		if m.MaxJunction > a.MaxJunction {
			a.MaxJunction = m.MaxJunction
		}
		aisleTicks[spec.Aisle] += ticks
		aisleViolations[spec.Aisle] += m.ViolationFrac * ticks
		aisleInlet[spec.Aisle] += float64(inlets[i])
	}

	out.TotalEnergy = out.FanEnergy + out.CPUEnergy
	if out.TotalEnergy > 0 {
		out.FanEnergyShare = float64(out.FanEnergy) / float64(out.TotalEnergy)
	}
	if totalTicks > 0 {
		out.ViolationFrac = totalViolations / totalTicks
	}
	for a := range out.Aisles {
		if aisleTicks[a] > 0 {
			out.Aisles[a].ViolationFrac = aisleViolations[a] / aisleTicks[a]
		}
		if n := out.Aisles[a].Nodes; n > 0 {
			out.Aisles[a].MeanInlet = units.Celsius(aisleInlet[a] / float64(n))
		}
	}
	if len(rackPower) > 0 {
		_, peak, err := stats.MinMax(rackPower)
		if err != nil {
			return nil, err
		}
		out.PeakRackPower = units.Watt(peak)
		out.MeanRackPower = units.Watt(stats.Mean(rackPower))
	}
	return out, nil
}

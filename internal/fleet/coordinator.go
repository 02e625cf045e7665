package fleet

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/coord"
	"repro/internal/sim"
	"repro/internal/units"
)

// This file is the rack-level global coordinator: where Run leaves every
// node's DTM to optimize its own server, RunCoordinated layers a
// rack-scope control loop over the warm-lockstep fixed point. Between
// whole relaxations it (a) arbitrates per-node cap/fan intents against a
// global rack power budget with the Table II-style multi-node selector
// (coord.ArbitrateRack — the same performance-biased matrix, extended
// across nodes instead of duplicated), and (b) performs thermal-aware
// load placement: divisible workload share migrates from nodes breathing
// hot air (downstream in the recirculation graph, high resolved inlet)
// toward cool nodes with headroom, in the spirit of Van Damme, De Persis
// & Tesi's thermal-aware job scheduling. Each round re-enters the warm
// instance — no servers are rebuilt, no schedules recompiled — and the
// final answer is the best round under a safety-first objective, so
// coordination can only beat or tie local control.

// The rack coordinator's policy constants.
const (
	// migrationGain is the fraction of a node's share the placement step
	// may move per round at the extreme of the inlet spread.
	migrationGain = 0.5
	// shareMax / shareMin bound every node's demand share (1 = the
	// node's own workload, unmigrated).
	shareMax = 1.25
	shareMin = 0.5
	// peakTarget bounds what a receiver may be scaled to at its demand
	// peak: node i's share never exceeds peakTarget / peakDemand_i, so
	// migration cannot push a node's scaled spikes past the point where
	// any transient cap becomes a violation.
	peakTarget = 0.9
	// coordRounds is how many coordination rounds run after the local
	// baseline. The loop stops early when a round's plan stops moving.
	coordRounds = 2
	// capFloor is the utilization floor the arbitration guarantees every
	// node (the local DTM's own MinCap).
	capFloor units.Utilization = 0.5
)

// CoordResult is the outcome of a coordinated rack run: the local
// (per-node control only) baseline, the coordinated result, and the plan
// that produced it.
type CoordResult struct {
	// Local is the round-0 baseline — exactly Run's result for the same
	// Config (trace capture aside; see RunCoordinated).
	Local *Result
	// Coordinated is the best round's result. When no round improved on
	// local control it is the local result itself (BestRound 0).
	Coordinated *Result
	// Rounds is how many coordination rounds actually executed.
	Rounds int
	// BestRound is the round the Coordinated result came from; 0 means
	// local control won.
	BestRound int
	// Budget is the resolved global power budget (0 when cap arbitration
	// is off): max(the budget RunCoordinated was given, sum of node
	// floors).
	Budget units.Watt
	// Shares is the best round's per-node demand share (1 = unmigrated).
	Shares []float64
	// CapCeils is the best round's arbitrated per-node cap ceiling
	// (1 = unconstrained); nil when cap arbitration is off.
	CapCeils []units.Utilization
	// MigratedShare is the demand-weighted fraction of the rack's load
	// the best plan moved off its home nodes.
	MigratedShare float64
	// LaneTicks counts every server-tick stepped: the LaneTicks of the
	// baseline, every round and the recording re-run, if any.
	LaneTicks int
}

// limitedPolicy clamps a node DTM's cap command to the coordinator's
// grant: the cap never rises above the arbitrated ceiling. Everything
// else — fan, timing, set-points, boosts — stays the inner policy's
// business.
type limitedPolicy struct {
	inner   sim.Policy
	capCeil units.Utilization // <= 0 disables
}

// Name implements sim.Policy.
func (p *limitedPolicy) Name() string { return p.inner.Name() + "+rack" }

// Step implements sim.Policy.
func (p *limitedPolicy) Step(obs sim.Observation) sim.Command {
	cmd := p.inner.Step(obs)
	if p.capCeil > 0 && cmd.Cap > p.capCeil {
		cmd.Cap = p.capCeil
	}
	return cmd
}

// Reset implements sim.Policy.
func (p *limitedPolicy) Reset() { p.inner.Reset() }

// coordPlan is one round's actuation: per-node demand shares plus the
// arbitration's per-node cap ceilings.
type coordPlan struct {
	shares   []float64
	capCeils []units.Utilization // nil: no cap arbitration
}

// identityPlan is the do-nothing plan (round 0: pure local control).
func identityPlan(n int) coordPlan {
	shares := make([]float64, n)
	for i := range shares {
		shares[i] = 1
	}
	return coordPlan{shares: shares}
}

// capCeil returns node i's cap ceiling under the plan, 0 where
// unconstrained (a ceiling of 1 or more constrains nothing).
func (p coordPlan) capCeil(i int) units.Utilization {
	if p.capCeils != nil && p.capCeils[i] < 1 {
		return p.capCeils[i]
	}
	return 0
}

// apply installs the plan on the warm rack instance: lane demand scales
// now, and the cap ceilings as each lane is next re-homed. The next relax
// re-steps only the lanes whose plan or inlet moved.
func (r *rack) apply(p coordPlan) error {
	for i := range r.cfg.Nodes {
		if err := r.ls.SetDemandScale(i, p.shares[i]); err != nil {
			return err
		}
	}
	r.plan = p
	return nil
}

// betterResult is the coordinator's objective: fewer deadline violations
// (the paper's headline performance metric), then less fan energy (its
// headline cost), then fewer node-seconds above the comfort limit — a
// band the per-node DTMs already regulate, and one every rack spends
// hundreds of node-seconds in under plain local control. Strict
// improvement is required — on a full tie the earlier round (ultimately
// local control) keeps the title.
func betterResult(a, b *Result) bool {
	if a.ViolationFrac != b.ViolationFrac {
		return a.ViolationFrac < b.ViolationFrac
	}
	if a.FanEnergy != b.FanEnergy {
		return a.FanEnergy < b.FanEnergy
	}
	return a.TimeAboveLimit < b.TimeAboveLimit
}

// migrate computes the next round's demand shares from the previous
// round's resolved inlet field: nodes hotter than the rack mean shed
// share in proportion to how far above it they sit, and the shed total is
// redistributed to cooler nodes in proportion to their remaining
// headroom. The rack's total mean demand is conserved exactly (donor
// share leaves in the same demand-weighted units receivers absorb), and
// node i's share stays inside [shareMin, maxShare[i]] — the per-node
// ceiling already folds the peak-demand headroom into shareMax.
func migrate(inlets []units.Celsius, meanDemand, maxShare, shares []float64) []float64 {
	n := len(shares)
	next := make([]float64, n)
	copy(next, shares)
	if n < 2 {
		return next
	}
	mean, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for _, t := range inlets {
		v := float64(t)
		mean += v
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	mean /= float64(n)
	spread := hi - lo
	if spread <= 1e-9 {
		return next // a flat inlet field has nothing to exploit
	}

	// Donors: shed share proportional to inlet excess, floored at
	// shareMin. Shed is accounted in demand units (share × the node's
	// unscaled mean demand) so conservation is demand-weighted.
	shed := make([]float64, n)
	total := 0.0
	for i := range next {
		excess := float64(inlets[i]) - mean
		if excess <= 0 || meanDemand[i] <= 0 {
			continue
		}
		d := migrationGain * (excess / spread) * next[i]
		if d > next[i]-shareMin {
			d = next[i] - shareMin
		}
		if d <= 0 {
			continue
		}
		shed[i] = d * meanDemand[i]
		total += shed[i]
	}
	if total <= 0 {
		return next
	}

	// Receivers: capacity is the headroom to maxShare, again in demand
	// units. If the rack cannot absorb the full shed, donors keep the
	// remainder (scaled back proportionally).
	capacity := make([]float64, n)
	capTotal := 0.0
	for i := range next {
		if float64(inlets[i]) >= mean || meanDemand[i] <= 0 {
			continue
		}
		capacity[i] = (maxShare[i] - next[i]) * meanDemand[i]
		if capacity[i] < 0 {
			capacity[i] = 0
		}
		capTotal += capacity[i]
	}
	if capTotal <= 0 {
		return next
	}
	moved := total
	if capTotal < moved {
		moved = capTotal
	}
	scaleBack := moved / total
	for i := range next {
		if shed[i] > 0 {
			next[i] -= shed[i] * scaleBack / meanDemand[i]
		}
		if capacity[i] > 0 {
			next[i] += capacity[i] * (moved / capTotal) / meanDemand[i]
		}
	}
	return next
}

// arbitrate turns the previous round's per-node outcomes into Table II
// proposals, runs the rack-level selector against the global budget, and
// maps the granted power allocations back to cap ceilings. Returns nil
// ceilings when the budget is off (zero).
func arbitrate(c Config, powerBudget units.Watt, res *Result) (ceils []units.Utilization, budget units.Watt, err error) {
	if powerBudget <= 0 {
		return nil, 0, nil
	}
	proposals := make([]coord.RackProposal, len(c.Nodes))
	sumFloor := 0.0
	for i, node := range c.Nodes {
		cpu, _, err := node.Config.Models()
		if err != nil {
			return nil, 0, fmt.Errorf("fleet: node %q: %w", node.Name, err)
		}
		m := res.Nodes[i].Metrics
		capDir := coord.Hold
		switch {
		case m.ViolationFrac > 0:
			capDir = coord.Up
		case float64(m.MeanDelivered)+0.15 < 1:
			capDir = coord.Down
		}
		fanDir := coord.Hold
		switch {
		case m.TimeAboveLimit > 0 || m.MaxJunction > node.Config.TLimit-1:
			fanDir = coord.Up
		case m.ViolationFrac == 0 && m.MeanFanSpeed > node.Config.FanMinSpeed+500:
			fanDir = coord.Down
		}
		need := cpu.Power(1)
		if capDir != coord.Up {
			need = cpu.Power(units.ClampUtil(m.MeanDelivered + 0.1))
		}
		floor := cpu.Power(capFloor)
		sumFloor += float64(floor)
		proposals[i] = coord.RackProposal{
			CapDir:  capDir,
			FanDir:  fanDir,
			Floor:   float64(floor),
			Need:    float64(need),
			Urgency: m.ViolationFrac*1e6 + float64(res.Nodes[i].Inlet),
		}
	}
	budget = powerBudget
	if float64(budget) < sumFloor {
		budget = units.Watt(sumFloor) // floors outrank the budget
	}
	allocs, err := coord.ArbitrateRack(float64(budget), proposals)
	if err != nil {
		return nil, 0, err
	}
	ceils = make([]units.Utilization, len(c.Nodes))
	for i, node := range c.Nodes {
		cpu, _, _ := node.Config.Models()
		u := cpu.UtilizationFor(units.Watt(allocs[i]))
		if u < capFloor {
			u = capFloor
		}
		ceils[i] = u
	}
	return ceils, budget, nil
}

// RunCoordinated simulates the rack under the global coordinator. Round 0
// is plain local control (bit-identical to Run); each further round
// derives a placement + arbitration plan from the previous round's
// outcome, applies it to the warm rack instance, and re-resolves the
// recirculation fixed point, re-stepping only the nodes whose plan or
// inlet moved. The best round under betterResult is the coordinated
// answer — so the coordinated result never does worse than local control
// on (time above limit, violations, fan energy), and the whole procedure
// is bit-identical at any Workers value, and to resolving every round on
// a freshly built rack.
//
// budget is the global rack power budget (W) the cap arbitration splits
// across nodes. Zero disables cap arbitration (placement only). A budget
// below the sum of the node floors is clamped up to it — local
// thermal/performance constraints outrank the budget — and the resolved
// value is reported in CoordResult.Budget.
//
// Trace capture (Config.Record) applies to the returned Coordinated
// result: the best plan is re-applied and re-simulated once with
// recording on (the Local baseline carries metrics only).
func RunCoordinated(c Config, budget units.Watt) (*CoordResult, error) {
	if budget < 0 || !units.IsFinite(float64(budget)) {
		return nil, fmt.Errorf("fleet: bad coordinator power budget %v", budget)
	}
	r, err := newRack(c)
	if err != nil {
		return nil, err
	}
	return coordinate(c, budget, r.ls, func(p coordPlan, record bool) (*Result, error) {
		if err := r.apply(p); err != nil {
			return nil, err
		}
		return r.relax(record)
	})
}

// coordinate runs RunCoordinated's rounds: relax resolves the rack's fixed
// point under a plan, and ls supplies the nodes' demand schedules.
func coordinate(c Config, budget units.Watt, ls *sim.Lockstep, relax func(p coordPlan, record bool) (*Result, error)) (*CoordResult, error) {
	n := len(c.Nodes)

	meanDemand := make([]float64, n)
	maxShare := make([]float64, n)
	for i := 0; i < n; i++ {
		meanDemand[i] = ls.MeanDemand(i)
		maxShare[i] = shareMax
		if peak := ls.MaxDemand(i); peak > 0 && peakTarget/peak < maxShare[i] {
			maxShare[i] = peakTarget / peak
			if maxShare[i] < 1 {
				// A node whose own spikes already exceed the peak target
				// keeps its share; migration only stops adding to it.
				maxShare[i] = 1
			}
		}
	}

	plans := []coordPlan{identityPlan(n)}
	local, err := relax(plans[0], false)
	if err != nil {
		return nil, err
	}
	out := &CoordResult{
		Local:       local,
		Coordinated: local,
		LaneTicks:   local.LaneTicks,
	}
	bestPlan := plans[0]
	cur := local

	for round := 1; round <= coordRounds; round++ {
		prev := plans[len(plans)-1]
		inlets := make([]units.Celsius, n)
		for i, node := range cur.Nodes {
			inlets[i] = node.Inlet
		}
		shares := migrate(inlets, meanDemand, maxShare, prev.shares)
		capCeils, resolved, err := arbitrate(c, budget, cur)
		if err != nil {
			return nil, err
		}
		out.Budget = resolved
		plan := coordPlan{shares: shares, capCeils: capCeils}
		if reflect.DeepEqual(plan, prev) {
			break // the plan stopped moving: further rounds change nothing
		}
		res, err := relax(plan, false)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
		out.Rounds++
		out.LaneTicks += res.LaneTicks
		cur = res
		if betterResult(res, out.Coordinated) {
			out.Coordinated = res
			out.BestRound = round
			bestPlan = plan
		}
	}

	if c.Record {
		// Re-run the winning plan once with trace capture; metrics are
		// bit-identical to the round that won.
		res, err := relax(bestPlan, true)
		if err != nil {
			return nil, err
		}
		out.LaneTicks += res.LaneTicks
		out.Coordinated = res
	}

	out.Shares = bestPlan.shares
	out.CapCeils = bestPlan.capCeils
	moved, totalDemand := 0.0, 0.0
	for i := 0; i < n; i++ {
		totalDemand += meanDemand[i]
		if bestPlan.shares[i] < 1 {
			moved += (1 - bestPlan.shares[i]) * meanDemand[i]
		}
	}
	if totalDemand > 0 {
		out.MigratedShare = moved / totalDemand
	}
	return out, nil
}

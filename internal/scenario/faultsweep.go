package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// This file is the non-ideal-sensing campaign surface: the faultsweep
// kind runner (one faulted cell with pathology metrics distilled from
// per-tick traces), the severity ladder that maps (fault type, severity)
// onto concrete FaultSpec scalars, and the FaultSweep campaign driver
// that crosses fault type x severity x target stack into store-addressed
// cells, compares each against its fault-free baseline, and classifies
// the degradation as graceful, degraded, or pathological.

// The faultsweep pathology metric keys. Both are distilled from the
// recorded per-tick traces, so a cell can report latch signatures without
// persisting the series themselves.
const (
	// MetricMaxViolWindow is the worst violation fraction over any
	// pathologyWindowS-second sliding window — a sustained near-1 value is
	// the "control gave up" signature that a run-mean violation fraction
	// dilutes away.
	MetricMaxViolWindow = "fault_max_viol_window"
	// MetricLatchFrac is the fraction of the final quarter of the run
	// spent with the fan pinned at its ceiling while the utilization cap
	// never released — the latched state a stuck-low sensor can wedge the
	// controller into.
	MetricLatchFrac = "fault_latch_frac"
)

const (
	// pathologyWindowS is the sliding-window span for MetricMaxViolWindow.
	pathologyWindowS = 120.0
	// latchFanEpsRPM / latchCapEps decide "fan pinned at max" and "cap not
	// released" for MetricLatchFrac.
	latchFanEpsRPM = 0.5
	latchCapEps    = 1e-3
	// violEps mirrors the engine's violation comparison tolerance.
	violEps = 1e-9
)

// runFaultSweep executes the cell's target stack with recording forced
// on, distills the pathology metrics from the traces, and strips the
// series again unless the spec asked for them. The target engine is the
// one the equivalent plain spec would use, so a faultsweep cell differs
// from its baseline only by the injected fault chain.
func runFaultSweep(s Spec) (*Outcome, error) {
	inner := s
	inner.Record = true
	run := runSimBatch
	if len(s.Jobs) == 0 {
		// The coordinator reads only its own knobs from Params, so the
		// "coordinated" selector passes through inert.
		run = runFleet
		if _, ok := s.Params["coordinated"]; ok {
			run = runFleetCoord
		}
	}
	out, err := run(inner)
	if err != nil {
		return nil, err
	}
	out.Kind = KindFaultSweep
	if out.Aggregate == nil {
		out.Aggregate = make(map[string]float64)
	}
	var maxWindow, maxLatch float64
	cfg := s.base()
	for i := range out.Units {
		u := &out.Units[i]
		window, latch, err := pathologyMetrics(u, cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: faultsweep unit %q: %w", u.Name, err)
		}
		u.Metrics[MetricMaxViolWindow] = window
		u.Metrics[MetricLatchFrac] = latch
		maxWindow = max(maxWindow, window)
		maxLatch = max(maxLatch, latch)
		if !s.Record {
			u.Series = nil
		}
	}
	out.Aggregate[MetricMaxViolWindow] = maxWindow
	out.Aggregate[MetricLatchFrac] = maxLatch
	return out, nil
}

// pathologyMetrics distills one unit's recorded traces into the two
// latch-signature metrics. cfg is the spec's platform (for the fan
// ceiling).
func pathologyMetrics(u *Unit, cfg sim.Config) (maxViolWindow, latchFrac float64, err error) {
	demand := u.Series.Get("demand")
	delivered := u.Series.Get("delivered")
	fan := u.Series.Get("fan_actual")
	capacity := u.Series.Get("cap")
	if demand == nil || delivered == nil || fan == nil || capacity == nil {
		return 0, 0, fmt.Errorf("missing recorded series (need demand/delivered/fan_actual/cap, have %d series)", len(u.Series))
	}
	n := len(demand.T)
	if len(delivered.V) != n || len(fan.V) != n || len(capacity.V) != n {
		return 0, 0, fmt.Errorf("series length mismatch (%d/%d/%d/%d)",
			n, len(delivered.V), len(fan.V), len(capacity.V))
	}
	if n == 0 {
		return 0, 0, nil
	}

	// Worst violation fraction over any pathologyWindowS-second sliding
	// window, two-pointer over the shared time base.
	violations := 0
	lo := 0
	for hi := 0; hi < n; hi++ {
		if delivered.V[hi] < demand.V[hi]-violEps {
			violations++
		}
		for demand.T[hi]-demand.T[lo] > pathologyWindowS {
			if delivered.V[lo] < demand.V[lo]-violEps {
				violations--
			}
			lo++
		}
		maxViolWindow = max(maxViolWindow, float64(violations)/float64(hi-lo+1))
	}

	// Latched-state fraction over the final quarter: fan pinned at the
	// ceiling while the cap never releases.
	fanCeil := float64(cfg.FanMaxSpeed) - latchFanEpsRPM
	start := n - n/4
	if start >= n {
		start = n - 1
	}
	latched := 0
	for k := start; k < n; k++ {
		if fan.V[k] >= fanCeil && capacity.V[k] < 1-latchCapEps {
			latched++
		}
	}
	latchFrac = float64(latched) / float64(n-start)
	return maxViolWindow, latchFrac, nil
}

// The campaign fault types. Each maps a unitless severity in (0, 1] onto
// one stage of the FaultSpec chain (see FaultSpecFor).
const (
	FaultStuck       = "stuck"
	FaultDropout     = "dropout"
	FaultPlacement   = "placement"
	FaultCalibration = "calibration"
	FaultSlew        = "slew"
	// FaultSegment is the correlated bus failure: the cell injects the
	// fault as a BusSegment over the target's declared segment nodes, so
	// every member's telemetry degrades simultaneously. Fleet targets
	// with a Segment declaration only.
	FaultSegment = "segment"
)

// FaultTypes returns the campaign fault type names in severity-ladder
// order.
func FaultTypes() []string {
	return []string{FaultStuck, FaultDropout, FaultPlacement, FaultCalibration, FaultSlew, FaultSegment}
}

// FaultSpecFor maps (fault type, severity) onto concrete FaultSpec
// scalars for a run of the given duration. Severity is unitless in
// (0, 1]; seed decorrelates the seeded stages (dropout pattern,
// calibration draw) between campaigns while keeping every cell
// reproducible.
//
// The silicon-side rungs are calibrated against Rotem et al.'s measured
// Core Duo sensor-error distributions ("Temperature measurement in the
// Intel Core Duo processor"; also PAPER.md Sec. I), severity 1 = the
// worst error class they report:
//
//	ladder rung          severity 1 value   measured anchor
//	-----------------    ----------------   ------------------------------
//	calibration sigma    4 degC             part-to-part offset spread at a
//	                                        fixed test point: +/-8 degC
//	                                        worst case ~= a 2-sigma draw
//	                                        from N(0, 4^2)
//	placement coeff      0.25 degC/W        hotspot-to-diode gradient: up
//	                                        to ~8 degC under a ~32 W power
//	                                        virus => 0.25 degC/W of
//	                                        instantaneous package power
//	slew floor           0.02 degC/s        remote-diode + SMBus filtering
//	                                        time constants (paper Sec. I);
//	                                        1/severity so rung 1 is the
//	                                        slowest tracking
//	stuck window         half the run       transport failure modes, not
//	dropout rate         0.9                silicon: kept at PR 6's
//	                                        envelope bounds
//	segment (lag+drop)   +30 s lag, 0.6     a degraded I2C segment: ~60
//	                                        sensors' worth of extra bus
//	                                        occupancy (sensor.DefaultBus
//	                                        0.5 s/sensor) plus arbitration
//	                                        loss on most scans
func FaultSpecFor(faultType string, severity float64, duration units.Seconds, seed int64) (*FaultSpec, error) {
	if !(severity > 0 && severity <= 1) {
		return nil, fmt.Errorf("scenario: fault severity %v outside (0, 1]", severity)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("scenario: non-positive fault duration %v", duration)
	}
	switch faultType {
	case FaultStuck:
		return &FaultSpec{
			StuckAt:  duration / 4,
			StuckLen: units.Seconds(severity * 0.5 * float64(duration)),
		}, nil
	case FaultDropout:
		return &FaultSpec{
			DropoutRate: 0.9 * severity,
			DropoutSeed: stats.SubSeed(seed, 1),
		}, nil
	case FaultPlacement:
		return &FaultSpec{PlacementCoeff: 0.25 * severity}, nil
	case FaultCalibration:
		return &FaultSpec{
			CalibSigma: 4 * severity,
			CalibSeed:  stats.SubSeed(seed, 2),
		}, nil
	case FaultSlew:
		return &FaultSpec{SlewLimitCPerS: 0.02 / severity}, nil
	case FaultSegment:
		return &FaultSpec{
			AddedLagS:   units.Seconds(30 * severity),
			DropoutRate: 0.6 * severity,
			DropoutSeed: stats.SubSeed(seed, 3),
		}, nil
	}
	return nil, fmt.Errorf("scenario: unknown fault type %q (known: %v)", faultType, FaultTypes())
}

// FaultTarget is one control stack a campaign stresses: a fault-free
// baseline spec of an existing kind (single/batch/lockstep jobs, or an
// explicit-node fleet/fleetcoord rack).
type FaultTarget struct {
	Name string
	Spec Spec
	// Segment names the explicit fleet nodes sharing one telemetry bus
	// for FaultSegment cells. Empty opts the target out of segment-type
	// cells; non-empty requires a fleet-kind spec.
	Segment []string
}

// The campaign control-stack (sensing) variants: the ordinary
// single-chain stack, and the redundant voting stack (Spec.Voting armed
// on every unit, fail-safe policy wrap included).
const (
	StackFull   = "full"
	StackVoting = "voting"
)

// FaultStacks returns the stack variant names a campaign can cross.
func FaultStacks() []string { return []string{StackFull, StackVoting} }

// DefaultVoting is the voting block a campaign's voting stack arms:
// triple-redundant sensing with the sensor-package fusion defaults.
func DefaultVoting() *VotingSpec { return &VotingSpec{Sensors: 3} }

// FaultCampaign crosses fault types x severities x targets x stacks into
// a grid of faultsweep cells plus one fault-free baseline per
// (target, stack).
type FaultCampaign struct {
	Targets    []FaultTarget
	Types      []string
	Severities []float64
	// Stacks selects the sensing variants (StackFull / StackVoting); nil
	// means {full}. The voting stack arms DefaultVoting().
	Stacks []string
	// Seed decorrelates the seeded fault stages between campaigns.
	Seed int64
}

// Verdict is the graceful-degradation classification of one cell.
type Verdict string

const (
	// VerdictGraceful: the faulted stack stays within the degradation
	// thresholds of its fault-free baseline.
	VerdictGraceful Verdict = "graceful"
	// VerdictDegraded: measurably worse than baseline, but the control
	// loop still functions.
	VerdictDegraded Verdict = "degraded"
	// VerdictPathological: a latch signature — sustained near-total
	// violation windows, or the fan pinned at max while caps never
	// release.
	VerdictPathological Verdict = "pathological"
)

// The classification thresholds. Pathology is judged on the cell's own
// latch signatures; degradation on the deltas against its baseline.
const (
	pathologicalViolWindow = 0.95
	pathologicalLatchFrac  = 0.95
	degradedDViolation     = 0.02
	degradedDFanEnergyRel  = 0.05
	degradedDTimeAboveS    = 5.0
)

// Degradation is one cell's damage report against its fault-free
// baseline, plus the cell's own latch-signature metrics.
type Degradation struct {
	// DViolationFrac / DFanEnergyJ / DTimeAboveS are faulted minus
	// baseline headline metrics.
	DViolationFrac float64 `json:"d_violation_frac"`
	DFanEnergyJ    float64 `json:"d_fan_energy_j"`
	DTimeAboveS    float64 `json:"d_time_above_limit_s"`
	// DFanEnergyRel is DFanEnergyJ over the baseline fan energy (0 when
	// the baseline spent none).
	DFanEnergyRel float64 `json:"d_fan_energy_rel"`
	// MaxViolWindow / LatchFrac echo the cell's pathology metrics.
	MaxViolWindow float64 `json:"max_viol_window"`
	LatchFrac     float64 `json:"latch_frac"`
}

// Classify maps a damage report onto the three-way verdict.
func Classify(d Degradation) Verdict {
	if d.MaxViolWindow >= pathologicalViolWindow || d.LatchFrac >= pathologicalLatchFrac {
		return VerdictPathological
	}
	if d.DViolationFrac > degradedDViolation ||
		d.DFanEnergyRel > degradedDFanEnergyRel ||
		d.DTimeAboveS > degradedDTimeAboveS {
		return VerdictDegraded
	}
	return VerdictGraceful
}

// FaultCell is one campaign grid point: the faulted cell, its store
// accounting, and the classified damage against the (target, stack)
// baseline.
type FaultCell struct {
	Target      string
	Stack       string
	Type        string
	Severity    float64
	Key         string
	Cached      bool
	Outcome     *Outcome
	Degradation Degradation
	Verdict     Verdict
}

// FaultBaseline is one fault-free (target, stack) run.
type FaultBaseline struct {
	Target  string
	Stack   string
	Key     string
	Cached  bool
	Outcome *Outcome
}

// FaultSweepResult bundles the campaign's baselines, classified cells,
// and cache accounting (baselines included).
type FaultSweepResult struct {
	// Baselines are the fault-free runs, target-major then stack,
	// matching the campaign declaration order.
	Baselines []FaultBaseline
	// Cells are the faulted grid points, target-major then stack then
	// type then severity. Segment-type points exist only for targets
	// with a Segment declaration; the grid simply has no cell there for
	// the others.
	Cells  []FaultCell
	Hits   int
	Misses int
}

// FaultCellSpec derives the faultsweep spec for one grid point: the
// target's spec with the fault chain injected into its first job or
// first node (one bad sensor in an otherwise healthy stack — the rack
// case shows whether recirculation and the coordinator spread or contain
// the damage), or — for FaultSegment — as a BusSegment over the target's
// declared segment nodes, degrading every member's telemetry at once.
// The voting stack arms the voting block on top (nil voting = the full
// stack). The returned spec's store key is independent of the baseline's,
// while every fault-free full-stack spec keeps its existing-kind key.
func FaultCellSpec(t FaultTarget, faultType string, severity float64, seed int64, voting *VotingSpec) (Spec, error) {
	f, err := FaultSpecFor(faultType, severity, t.Spec.Duration, seed)
	if err != nil {
		return Spec{}, err
	}
	s := t.Spec
	s.Kind = KindFaultSweep
	s.Name = fmt.Sprintf("%s/%s@%g", t.Name, faultType, severity)
	s.Voting = voting
	if voting != nil {
		s.Name += "+voting"
	}
	fleetTarget := false
	switch t.Spec.Kind {
	case KindSingle, KindBatch, KindLockstep:
		if len(s.Jobs) == 0 {
			return Spec{}, fmt.Errorf("scenario: fault target %q has no jobs", t.Name)
		}
		if faultType == FaultSegment {
			return Spec{}, fmt.Errorf("scenario: fault target %q is a jobs target (segment faults need a fleet rack)", t.Name)
		}
		jobs := append([]JobSpec(nil), s.Jobs...)
		jobs[0].Faults = f
		s.Jobs = jobs
	case KindFleet, KindFleetCoord:
		fleetTarget = true
		if s.Fleet == nil || len(s.Fleet.Nodes) == 0 {
			return Spec{}, fmt.Errorf("scenario: fault target %q needs explicit fleet nodes", t.Name)
		}
		fl := *s.Fleet
		fl.Nodes = append([]FleetNode(nil), fl.Nodes...)
		if faultType == FaultSegment {
			if len(t.Segment) == 0 {
				return Spec{}, fmt.Errorf("scenario: fault target %q declares no segment nodes", t.Name)
			}
			fl.Segments = append([]BusSegment(nil), fl.Segments...)
			fl.Segments = append(fl.Segments, BusSegment{
				Name:   "bus0",
				Nodes:  t.Segment,
				Faults: f,
			})
		} else {
			fl.Nodes[0].Faults = f
		}
		s.Fleet = &fl
		if t.Spec.Kind == KindFleetCoord {
			p := Params{"coordinated": 1}
			for k, v := range t.Spec.Params {
				p[k] = v
			}
			s.Params = p
		}
	default:
		return Spec{}, fmt.Errorf("scenario: fault target %q has unsupported kind %q", t.Name, t.Spec.Kind)
	}
	if len(t.Segment) > 0 && !fleetTarget {
		return Spec{}, fmt.Errorf("scenario: fault target %q declares segment nodes but is not a fleet target", t.Name)
	}
	return s, nil
}

// stackVoting resolves a stack name to the voting block armed on its
// specs: nil for the full stack, DefaultVoting() for the voting stack.
func stackVoting(stack string) (*VotingSpec, error) {
	switch stack {
	case StackFull:
		return nil, nil
	case StackVoting:
		return DefaultVoting(), nil
	}
	return nil, fmt.Errorf("scenario: unknown fault stack %q (known: %v)", stack, FaultStacks())
}

// FaultSweep runs the campaign with store-backed resume: baselines first
// (one per target x stack), then every faulted cell, each looked up by
// content hash before executing (killing a campaign loses at most the
// in-flight cell; the rerun simulates zero ticks for finished cells).
// Every cell is then compared against its (target, stack) baseline and
// classified. Segment-type cells run only on targets declaring Segment
// nodes; a campaign whose Types include FaultSegment with no such target
// is an error rather than a silently empty column.
func FaultSweep(c FaultCampaign, store *Store) (*FaultSweepResult, error) {
	if len(c.Targets) == 0 || len(c.Types) == 0 || len(c.Severities) == 0 {
		return nil, fmt.Errorf("scenario: fault campaign needs targets, types and severities")
	}
	stacks := c.Stacks
	if len(stacks) == 0 {
		stacks = []string{StackFull}
	}
	votingFor := make(map[string]*VotingSpec, len(stacks))
	for _, st := range stacks {
		if _, dup := votingFor[st]; dup {
			return nil, fmt.Errorf("scenario: fault campaign lists stack %q twice", st)
		}
		v, err := stackVoting(st)
		if err != nil {
			return nil, err
		}
		votingFor[st] = v
	}
	segmentable := 0
	for _, t := range c.Targets {
		if len(t.Segment) > 0 {
			segmentable++
		}
	}
	for _, typ := range c.Types {
		if typ == FaultSegment && segmentable == 0 {
			return nil, fmt.Errorf("scenario: campaign includes %q cells but no target declares Segment nodes", FaultSegment)
		}
	}

	specs := make([]Spec, 0, len(c.Targets)*len(stacks)*(1+len(c.Types)*len(c.Severities)))
	type baseMeta struct {
		target string
		stack  string
	}
	bmetas := make([]baseMeta, 0, len(c.Targets)*len(stacks))
	for _, t := range c.Targets {
		if err := t.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: fault target %q: %w", t.Name, err)
		}
		if faulted(t.Spec) {
			return nil, fmt.Errorf("scenario: fault target %q already carries faults (baselines must be fault-free)", t.Name)
		}
		if t.Spec.Voting != nil {
			return nil, fmt.Errorf("scenario: fault target %q already arms voting (the campaign's Stacks control it)", t.Name)
		}
		for _, st := range stacks {
			b := t.Spec
			b.Voting = votingFor[st]
			specs = append(specs, b)
			bmetas = append(bmetas, baseMeta{t.Name, st})
		}
	}
	type cellMeta struct {
		target   string
		stack    string
		typ      string
		severity float64
	}
	metas := make([]cellMeta, 0, len(c.Targets)*len(stacks)*len(c.Types)*len(c.Severities))
	for _, t := range c.Targets {
		for _, st := range stacks {
			for _, typ := range c.Types {
				if typ == FaultSegment && len(t.Segment) == 0 {
					continue
				}
				for _, sev := range c.Severities {
					cell, err := FaultCellSpec(t, typ, sev, c.Seed, votingFor[st])
					if err != nil {
						return nil, err
					}
					specs = append(specs, cell)
					metas = append(metas, cellMeta{t.Name, st, typ, sev})
				}
			}
		}
	}
	sw, err := Sweep(specs, store)
	if err != nil {
		return nil, err
	}
	res := &FaultSweepResult{
		Baselines: make([]FaultBaseline, len(bmetas)),
		Cells:     make([]FaultCell, len(metas)),
		Hits:      sw.Hits,
		Misses:    sw.Misses,
	}
	baseline := make(map[baseMeta]*Outcome, len(bmetas))
	for i, bm := range bmetas {
		cell := sw.Cells[i]
		res.Baselines[i] = FaultBaseline{
			Target:  bm.target,
			Stack:   bm.stack,
			Key:     cell.Key,
			Cached:  cell.Cached,
			Outcome: cell.Outcome,
		}
		baseline[bm] = cell.Outcome
	}
	for i, m := range metas {
		cell := sw.Cells[len(bmetas)+i]
		bViol, bFanE, bAbove := HeadlineMetrics(baseline[baseMeta{m.target, m.stack}])
		viol, fanE, above := HeadlineMetrics(cell.Outcome)
		d := Degradation{
			DViolationFrac: viol - bViol,
			DFanEnergyJ:    fanE - bFanE,
			DTimeAboveS:    above - bAbove,
			MaxViolWindow:  cell.Outcome.Aggregate[MetricMaxViolWindow],
			LatchFrac:      cell.Outcome.Aggregate[MetricLatchFrac],
		}
		if bFanE > 0 {
			d.DFanEnergyRel = d.DFanEnergyJ / bFanE
		}
		res.Cells[i] = FaultCell{
			Target:      m.target,
			Stack:       m.stack,
			Type:        m.typ,
			Severity:    m.severity,
			Key:         cell.Key,
			Cached:      cell.Cached,
			Outcome:     cell.Outcome,
			Degradation: d,
			Verdict:     Classify(d),
		}
	}
	return res, nil
}

// verdictRank orders verdicts for dominance comparison.
func verdictRank(v Verdict) int {
	switch v {
	case VerdictGraceful:
		return 0
	case VerdictDegraded:
		return 1
	default:
		return 2
	}
}

// Dominance checks the campaign's robustness claim: at every shared
// (target, type, severity) grid point, stack a is never pathological
// where stack b is not, and its violation *degradation* is no higher,
// while the clean baselines agree on fan energy within cleanFanTol
// (relative) — the voter must not buy robustness by burning fan power
// when healthy. Degradation is max(0, dViol): a negative delta means the
// fault accidentally overcooled (e.g. a calibration draw that reads
// high), which is luck, not robustness, so both sides clamp to "no
// degradation". The graceful/degraded boundary is deliberately not
// compared — a lucky overcooling draw on one side can flip the
// multi-metric label while the violation comparison still favours the
// other (a biased chain that overcools masks its time-above-threshold);
// only the pathological rank, and the violation metric itself, carry the
// claim. The epsilon is a tenth of the degraded-verdict threshold:
// differences an order of magnitude below classification granularity are
// tie, not defeat. It returns whether a dominates b plus the reasons it
// does not.
func (r *FaultSweepResult) Dominance(a, b string, cleanFanTol float64) (bool, []string) {
	const dViolEps = degradedDViolation / 10
	var reasons []string
	baseFan := make(map[string]float64)
	for _, bl := range r.Baselines {
		if bl.Stack == b {
			_, fanE, _ := HeadlineMetrics(bl.Outcome)
			baseFan[bl.Target] = fanE
		}
	}
	for _, bl := range r.Baselines {
		if bl.Stack != a {
			continue
		}
		_, fanE, _ := HeadlineMetrics(bl.Outcome)
		ref, ok := baseFan[bl.Target]
		if !ok {
			continue
		}
		if ref > 0 {
			if rel := (fanE - ref) / ref; rel > cleanFanTol || rel < -cleanFanTol {
				reasons = append(reasons, fmt.Sprintf(
					"baseline %s: clean fan energy %.0f J vs %.0f J (%.2f%% > %.2f%% tolerance)",
					bl.Target, fanE, ref, 100*rel, 100*cleanFanTol))
			}
		}
	}
	type point struct {
		target   string
		typ      string
		severity float64
	}
	other := make(map[point]*FaultCell)
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Stack == b {
			other[point{c.Target, c.Type, c.Severity}] = c
		}
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Stack != a {
			continue
		}
		o, ok := other[point{c.Target, c.Type, c.Severity}]
		if !ok {
			continue
		}
		if verdictRank(c.Verdict) > verdictRank(o.Verdict) && c.Verdict == VerdictPathological {
			reasons = append(reasons, fmt.Sprintf(
				"%s/%s@%g: %s is %s where %s is %s",
				c.Target, c.Type, c.Severity, a, c.Verdict, b, o.Verdict))
		}
		av := max(0, c.Degradation.DViolationFrac)
		bv := max(0, o.Degradation.DViolationFrac)
		if av > bv+dViolEps {
			reasons = append(reasons, fmt.Sprintf(
				"%s/%s@%g: %s dViol %.4f > %s dViol %.4f",
				c.Target, c.Type, c.Severity, a, av, b, bv))
		}
	}
	return len(reasons) == 0, reasons
}

// faulted reports whether any job or node of the spec carries a fault
// block.
func faulted(s Spec) bool {
	for i := range s.Jobs {
		if s.Jobs[i].Faults != nil {
			return true
		}
	}
	if s.Fleet != nil {
		for i := range s.Fleet.Nodes {
			if s.Fleet.Nodes[i].Faults != nil {
				return true
			}
		}
	}
	return false
}

// HeadlineMetrics extracts the campaign's comparison triple (violation
// fraction, fan energy, time above limit) from an outcome: the rack-level
// aggregate when the kind has one (for fleetcoord that is the coordinated
// rack, not the local baseline), the mean across units otherwise.
func HeadlineMetrics(o *Outcome) (viol, fanE, above float64) {
	if v, ok := o.Aggregate[MetricViolationFrac]; ok {
		return v, o.Aggregate[MetricFanEnergyJ], o.Aggregate[MetricTimeAboveS]
	}
	if len(o.Units) == 0 {
		return 0, 0, 0
	}
	for i := range o.Units {
		u := &o.Units[i]
		viol += u.Metric(MetricViolationFrac, 0)
		fanE += u.Metric(MetricFanEnergyJ, 0)
		above += u.Metric(MetricTimeAboveS, 0)
	}
	n := float64(len(o.Units))
	return viol / n, fanE / n, above / n
}

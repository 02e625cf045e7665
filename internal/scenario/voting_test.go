package scenario

import (
	"reflect"
	"testing"

	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/units"
)

// votingFleetTarget is faultFleetTarget plus a declared bus segment over
// the hot node, the shape segment-type campaign cells need.
func votingFleetTarget(dur units.Seconds, coordinated bool) FaultTarget {
	t := faultFleetTarget(dur, coordinated)
	t.Segment = []string{"n1"}
	return t
}

// TestVotingAndSegmentValidation covers the declarative surface: voting
// blocks on kinds that ignore them, malformed voting knobs, and every
// structural rule on bus segments.
func TestVotingAndSegmentValidation(t *testing.T) {
	segFault := &FaultSpec{DropoutRate: 0.5, DropoutSeed: 9}
	mkSeg := func(mut func(*Spec)) Spec {
		s := faultFleetTarget(120, false).Spec
		s.Fleet.Segments = []BusSegment{{Name: "bus0", Nodes: []string{"n1"}, Faults: segFault}}
		if mut != nil {
			mut(&s)
		}
		return s
	}
	good := mkSeg(nil)
	good.Voting = &VotingSpec{Sensors: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("good voting+segment spec rejected: %v", err)
	}
	bad := []struct {
		name string
		mk   func() Spec
	}{
		{"voting on multicore", func() Spec {
			return Spec{
				Kind: KindMulticore, Duration: 120,
				Multicore: &MulticoreSpec{Workload: FactoryRef{Name: "constant"}},
				Voting:    &VotingSpec{Sensors: 3},
			}
		}},
		{"two sensors", func() Spec {
			s := faultJobTarget(120).Spec
			s.Voting = &VotingSpec{Sensors: 2}
			return s
		}},
		{"segment names unknown node", func() Spec {
			return mkSeg(func(s *Spec) { s.Fleet.Segments[0].Nodes = []string{"ghost"} })
		}},
		{"segment lists node twice", func() Spec {
			return mkSeg(func(s *Spec) { s.Fleet.Segments[0].Nodes = []string{"n1", "n1"} })
		}},
		{"segment without nodes", func() Spec {
			return mkSeg(func(s *Spec) { s.Fleet.Segments[0].Nodes = nil })
		}},
		{"segment without name", func() Spec {
			return mkSeg(func(s *Spec) { s.Fleet.Segments[0].Name = "" })
		}},
		{"duplicate segment names", func() Spec {
			return mkSeg(func(s *Spec) {
				s.Fleet.Segments = append(s.Fleet.Segments,
					BusSegment{Name: "bus0", Nodes: []string{"n0"}, Faults: segFault})
			})
		}},
		{"segment without faults", func() Spec {
			return mkSeg(func(s *Spec) { s.Fleet.Segments[0].Faults = nil })
		}},
		{"segment with silicon-side faults", func() Spec {
			return mkSeg(func(s *Spec) {
				s.Fleet.Segments[0].Faults = &FaultSpec{CalibSigma: 4, CalibSeed: 1}
			})
		}},
		{"segment on generated rack", func() Spec {
			s := mkSeg(nil)
			s.Fleet.Nodes = nil
			s.Fleet.Size = 4
			return s
		}},
	}
	for _, tc := range bad {
		s := tc.mk()
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Cell construction: segment cells need a fleet target with declared
	// Segment nodes.
	if _, err := FaultCellSpec(faultJobTarget(120), FaultSegment, 0.5, 42, nil); err == nil {
		t.Error("segment cell on a jobs target accepted")
	}
	if _, err := FaultCellSpec(faultFleetTarget(120, false), FaultSegment, 0.5, 42, nil); err == nil {
		t.Error("segment cell on a fleet target without Segment nodes accepted")
	}

	// Campaign construction: unknown stacks, duplicate stacks, segment
	// cells with no segmentable target, and pre-armed voting targets.
	base := FaultCampaign{
		Targets:    []FaultTarget{faultJobTarget(120)},
		Types:      []string{FaultStuck},
		Severities: []float64{0.5},
	}
	for _, tc := range []struct {
		name string
		mut  func(*FaultCampaign)
	}{
		{"unknown stack", func(c *FaultCampaign) { c.Stacks = []string{"psychic"} }},
		{"duplicate stack", func(c *FaultCampaign) { c.Stacks = []string{StackFull, StackFull} }},
		{"segment cells without segmentable target", func(c *FaultCampaign) {
			c.Types = []string{FaultSegment}
		}},
		{"pre-armed voting target", func(c *FaultCampaign) {
			c.Targets[0].Spec.Voting = &VotingSpec{Sensors: 3}
		}},
	} {
		c := base
		c.Targets = []FaultTarget{faultJobTarget(120)}
		tc.mut(&c)
		if _, err := FaultSweep(c, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestVotingCleanBaselineMatchesFull: with no faults and no transducer
// noise the replicas are identical, so arming the voter must cost nothing
// — engine metrics bit-identical to the single-chain stack. This is the
// clean-baseline half of the campaign dominance claim.
func TestVotingCleanBaselineMatchesFull(t *testing.T) {
	plain := faultJobTarget(240).Spec
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	armed := faultJobTarget(240).Spec
	armed.Voting = &VotingSpec{Sensors: 3}
	out, err := Run(armed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SimMetrics(&out.Units[0]), SimMetrics(&ref.Units[0]); got != want {
		t.Errorf("clean voting metrics diverge from full:\nvoting %+v\nfull   %+v", got, want)
	}
	if got := out.Units[0].Labels["policy"]; got != "R-coord+A-Tref+SSfan+failsafe" {
		t.Errorf("voting unit policy = %q, want the full stack with the +failsafe suffix", got)
	}
}

// TestVotingNeverLatchesOnStuck is the latch regression: the harshest
// stuck-sensor cell latches the single-chain stack's fan (the wedged
// reading pins the controller), while the voter outvotes the one wedged
// replica — latch fraction exactly zero and no violation degradation.
func TestVotingNeverLatchesOnStuck(t *testing.T) {
	target := faultJobTarget(600)
	full, err := FaultCellSpec(target, FaultStuck, 1, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullOut, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	voting, err := FaultCellSpec(target, FaultStuck, 1, 42, DefaultVoting())
	if err != nil {
		t.Fatal(err)
	}
	votingOut, err := Run(voting)
	if err != nil {
		t.Fatal(err)
	}
	if latch := fullOut.Aggregate[MetricLatchFrac]; latch <= 0 {
		t.Errorf("full stack latch frac %v under stuck@1; the regression needs a latching baseline", latch)
	}
	if latch := votingOut.Aggregate[MetricLatchFrac]; latch != 0 {
		t.Errorf("voting stack latch frac %v under stuck@1, want exactly 0", latch)
	}
	fullViol, _, _ := HeadlineMetrics(fullOut)
	votingViol, _, _ := HeadlineMetrics(votingOut)
	if votingViol > fullViol {
		t.Errorf("voting violation %v exceeds full %v under stuck@1", votingViol, fullViol)
	}
}

// TestSegmentFaultedFleetDeterministicAcrossWorkers: correlated segment
// faults plus per-replica voting state must stay bit-identical at any
// worker count through the recirculation fixed point and the coordinator
// rounds — one voter per lane, never shared.
func TestSegmentFaultedFleetDeterministicAcrossWorkers(t *testing.T) {
	for _, coordinated := range []bool{false, true} {
		spec := faultFleetTarget(240, coordinated).Spec
		spec.Fleet.Nodes[0].Faults = &FaultSpec{StuckAt: 30, StuckLen: 90}
		spec.Fleet.Segments = []BusSegment{{
			Name:   "bus0",
			Nodes:  []string{"n0", "n1"},
			Faults: &FaultSpec{AddedLagS: 15, DropoutRate: 0.4, DropoutSeed: 11},
		}}
		spec.Voting = &VotingSpec{Sensors: 3}
		spec.Record = true
		spec.Workers = 1
		ref, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			spec.Workers = w
			out, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, ref) {
				t.Errorf("coordinated=%v: outcome differs at Workers=%d", coordinated, w)
			}
		}
	}
}

// TestFailSafePolicyEscalates: while the voter reports FailSafe the
// wrapped policy's command is overridden to open-loop safe cooling (fan
// floor, cap released); in any other health state it passes through. The
// voter holds through its 30-tick budget before it latches.
func TestFailSafePolicyEscalates(t *testing.T) {
	lo, hi := &sensor.CalibrationBias{}, &sensor.CalibrationBias{}
	red, err := sensor.NewRedundant(sensor.RedundantConfig{},
		sensor.NewPipeline(lo), sensor.NewPipeline(), sensor.NewPipeline(hi))
	if err != nil {
		t.Fatal(err)
	}
	pol := &failSafePolicy{
		inner: &sim.HoldPolicy{Fan: 2000},
		h:     &votingHandle{r: red},
		floor: 8500,
	}
	if got, want := pol.Name(), "hold+failsafe"; got != want {
		t.Errorf("name %q, want %q", got, want)
	}
	red.Sample(0, 50)
	cmd := pol.Step(sim.Observation{})
	if cmd.Fan != 2000 {
		t.Errorf("healthy voter: fan %v, want inner command 2000", cmd.Fan)
	}
	// Spread the replicas past the outlier bound: hold for 30 ticks, then
	// FailSafe.
	lo.Offset, hi.Offset = -10, 10
	const hold = 30
	for k := 1; k <= hold; k++ {
		red.Sample(units.Seconds(k), 50)
		if red.Health() != sensor.HealthHold {
			t.Fatalf("tick %d: health %v, want hold", k, red.Health())
		}
		if cmd := pol.Step(sim.Observation{}); cmd.Fan != 2000 {
			t.Fatalf("tick %d: holding voter: fan %v, want inner command 2000", k, cmd.Fan)
		}
	}
	red.Sample(hold+1, 50)
	if red.Health() != sensor.HealthFailSafe {
		t.Fatalf("health %v, want failsafe", red.Health())
	}
	cmd = pol.Step(sim.Observation{})
	if cmd.Fan != 8500 || cmd.Cap != 1 {
		t.Errorf("failsafe command %+v, want fan 8500 cap 1", cmd)
	}
	// Recovery passes through again.
	lo.Offset, hi.Offset = 0, 0
	red.Sample(hold+2, 50)
	if cmd := pol.Step(sim.Observation{}); cmd.Fan != 2000 {
		t.Errorf("recovered voter: fan %v, want inner command 2000", cmd.Fan)
	}
}

// TestVotingCampaignDominanceAndResume is the two-stack campaign end to
// end: baselines per (target, stack), segment cells only where declared,
// voting dominating the single chain, and a warm rerun served entirely
// from the store.
func TestVotingCampaignDominanceAndResume(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	campaign := FaultCampaign{
		Targets:    []FaultTarget{faultJobTarget(240), votingFleetTarget(240, false)},
		Types:      []string{FaultStuck, FaultSegment},
		Severities: []float64{1},
		Stacks:     []string{StackFull, StackVoting},
		Seed:       7,
	}
	res, err := FaultSweep(campaign, store)
	if err != nil {
		t.Fatal(err)
	}
	// 2 targets x 2 stacks baselines; stuck cells on both targets, segment
	// cells only on the fleet target: (1 + 2) x 2 stacks.
	if len(res.Baselines) != 4 {
		t.Fatalf("baselines = %d, want 4", len(res.Baselines))
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Type == FaultSegment && c.Target != "rack" {
			t.Errorf("segment cell ran on target %q without Segment nodes", c.Target)
		}
	}
	dominates, reasons := res.Dominance(StackVoting, StackFull, 0.01)
	if !dominates {
		t.Errorf("voting does not dominate full: %v", reasons)
	}

	// Warm rerun: everything cached, zero simulation.
	before := ProbeSimTicks()
	res2, err := FaultSweep(campaign, store)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Misses != 0 || res2.Hits != 10 {
		t.Errorf("warm campaign: %d hits, %d misses, want 10/0", res2.Hits, res2.Misses)
	}
	if ticks := ProbeSimTicks() - before; ticks != 0 {
		t.Errorf("warm campaign simulated %d ticks", ticks)
	}
	for i := range res.Cells {
		if res.Cells[i].Verdict != res2.Cells[i].Verdict {
			t.Errorf("cell %d verdict drifted: %s vs %s", i, res.Cells[i].Verdict, res2.Cells[i].Verdict)
		}
	}
}

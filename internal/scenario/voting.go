// Fault-tolerant sensing: the declarative voting/redundancy surface and
// the correlated bus-segment fault model.
//
// VotingSpec arms sensor.Redundant on every unit of a spec: the unit's
// measurement chain — including its injected FaultSpec stages — is
// replicated into N independently seeded copies observing the same
// junction, fused by median voting with plausibility checks and outlier
// rejection, and every policy is wrapped with a fail-safe escalation that
// degrades to open-loop safe cooling (fan floor + released cap) while the
// voter reports FailSafe. BusSegment models the correlated failure the
// single-chain stack cannot distinguish from silicon faults: one I2C
// segment degrading takes every member node's telemetry with it, so one
// declarative segment spec fans out to every sensor — every replica — on
// that segment.
package scenario

import (
	"fmt"

	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// VotingSpec arms redundant sensing. The voter runs on the sensor
// package's fusion defaults, and its fail-safe fan floor is the
// platform's FanMaxSpeed.
type VotingSpec struct {
	// Sensors is the replica count (>= 3; median voting cannot outvote a
	// wedged replica with fewer).
	Sensors int `json:"sensors"`
}

// validate rejects voting blocks that would simulate garbage.
func (v *VotingSpec) validate() error {
	if v.Sensors < 3 {
		return fmt.Errorf("sensors %d (voting needs >= 3 replicas)", v.Sensors)
	}
	return nil
}

// BusSegment declares one shared telemetry bus: a named group of fleet
// nodes whose sensors ride the same I2C segment, plus the transport fault
// every member sees simultaneously when the segment degrades.
type BusSegment struct {
	Name string `json:"name"`
	// Nodes are the member node names (explicit-node racks only).
	Nodes []string `json:"nodes"`
	// Faults is the correlated transport fault (stuck / dropout / added
	// lag) applied to every member node's chain — to every replica, when
	// voting is armed. Silicon-side fields (placement, calibration, slew)
	// are per-part properties, not bus properties, and are rejected here.
	Faults *FaultSpec `json:"faults"`
}

// transportOnly reports whether the spec is free of silicon-side stages
// (the requirement for a segment fault).
func (f *FaultSpec) transportOnly() bool {
	return f.PlacementCoeff == 0 && f.CalibSigma == 0 && f.SlewLimitCPerS == 0
}

// validateSegments enforces the bus-segment rules on a fleet block:
// explicit nodes only, known unique members, and a non-inert
// transport-only fault spec per segment.
func (s *Spec) validateSegments() error {
	segs := s.Fleet.Segments
	if len(segs) == 0 {
		return nil
	}
	if s.Fleet.Size > 0 {
		return fmt.Errorf("scenario: fleet segments need explicit nodes (generated racks have no stable node names)")
	}
	known := make(map[string]bool, len(s.Fleet.Nodes))
	for i := range s.Fleet.Nodes {
		known[s.Fleet.Nodes[i].Name] = true
	}
	names := make(map[string]bool, len(segs))
	for i, seg := range segs {
		if seg.Name == "" {
			return fmt.Errorf("scenario: fleet segment %d has no name", i)
		}
		if names[seg.Name] {
			return fmt.Errorf("scenario: duplicate fleet segment name %q", seg.Name)
		}
		names[seg.Name] = true
		if len(seg.Nodes) == 0 {
			return fmt.Errorf("scenario: fleet segment %q has no member nodes", seg.Name)
		}
		members := make(map[string]bool, len(seg.Nodes))
		for _, n := range seg.Nodes {
			if !known[n] {
				return fmt.Errorf("scenario: fleet segment %q names unknown node %q", seg.Name, n)
			}
			if members[n] {
				return fmt.Errorf("scenario: fleet segment %q lists node %q twice", seg.Name, n)
			}
			members[n] = true
		}
		if seg.Faults == nil {
			return fmt.Errorf("scenario: fleet segment %q has no fault spec (a segment exists to fail)", seg.Name)
		}
		if err := seg.Faults.validate(); err != nil {
			return fmt.Errorf("scenario: fleet segment %q faults: %w", seg.Name, err)
		}
		if !seg.Faults.transportOnly() {
			return fmt.Errorf("scenario: fleet segment %q faults carry silicon-side stages (placement/calibration/slew are per-part, not bus, properties)", seg.Name)
		}
	}
	return nil
}

// replicaStream offsets the SubSeed stream ids used to decorrelate
// replica chains, keeping them clear of the small stream ids other
// layers derive from the same declared seeds.
const replicaStream int64 = 0x52ed0000

// replicaSeed decorrelates a declared per-stage seed across replicas.
// Replica 0 keeps the declared seed exactly, so the voting stack's first
// chain is bit-identical to the single-chain stack under the same
// FaultSpec — the comparison the campaign dominance claim rests on.
func replicaSeed(seed int64, replica int) int64 {
	if replica == 0 {
		return seed
	}
	return stats.SubSeed(seed, replicaStream+int64(replica))
}

// replicaStages assembles one replica's sensor chain for a unit: silicon
// stages (identical physics across replicas, decorrelated random draws),
// the base chain (noise -> ADC -> transport delay), node-level transport
// faults, then each bus segment's correlated stages in declared order.
// The node-level stuck stage wedges replica 0 only — one failed part —
// while segment-level stages hit every replica: the whole bus degrades.
func replicaStages(cfg sim.Config, f *FaultSpec, segs []*FaultSpec, replica int) ([]sensor.Stage, error) {
	var stages []sensor.Stage
	if f != nil {
		if f.PlacementCoeff > 0 {
			place, err := sensor.NewPlacementOffset(f.PlacementCoeff)
			if err != nil {
				return nil, err
			}
			stages = append(stages, place)
		}
		if f.CalibSigma > 0 {
			calib, err := sensor.NewCalibrationBias(f.CalibSigma, replicaSeed(f.CalibSeed, replica))
			if err != nil {
				return nil, err
			}
			stages = append(stages, calib)
		}
		if f.SlewLimitCPerS > 0 {
			slew, err := sensor.NewSlewLimit(f.SlewLimitCPerS)
			if err != nil {
				return nil, err
			}
			stages = append(stages, slew)
		}
	}
	scfg := cfg.Sensor
	if scfg.NoiseSigma > 0 {
		scfg.NoiseSeed = replicaSeed(scfg.NoiseSeed, replica)
	}
	base, err := sensor.New(scfg)
	if err != nil {
		return nil, err
	}
	stages = append(stages, base)
	if f != nil {
		if f.AddedLagS > 0 {
			lag, err := sensor.NewDelayLine(f.AddedLagS, cfg.Sensor.InitialValue)
			if err != nil {
				return nil, err
			}
			stages = append(stages, lag)
		}
		if f.DropoutRate > 0 {
			drop, err := sensor.NewDropout(f.DropoutRate, replicaSeed(f.DropoutSeed, replica))
			if err != nil {
				return nil, err
			}
			stages = append(stages, drop)
		}
		if f.StuckLen > 0 && replica == 0 {
			stuck, err := sensor.NewStuckAt(f.StuckAt, f.StuckAt+f.StuckLen)
			if err != nil {
				return nil, err
			}
			stages = append(stages, stuck)
		}
	}
	for _, sf := range segs {
		if sf.AddedLagS > 0 {
			lag, err := sensor.NewDelayLine(sf.AddedLagS, cfg.Sensor.InitialValue)
			if err != nil {
				return nil, err
			}
			stages = append(stages, lag)
		}
		if sf.DropoutRate > 0 {
			drop, err := sensor.NewDropout(sf.DropoutRate, replicaSeed(sf.DropoutSeed, replica))
			if err != nil {
				return nil, err
			}
			stages = append(stages, drop)
		}
		if sf.StuckLen > 0 {
			stuck, err := sensor.NewStuckAt(sf.StuckAt, sf.StuckAt+sf.StuckLen)
			if err != nil {
				return nil, err
			}
			stages = append(stages, stuck)
		}
	}
	return stages, nil
}

// redundantConfig takes the fusion stage's plausibility range from the
// unit's ADC configuration; the other knobs keep their defaults.
func redundantConfig(sc sensor.Config) sensor.RedundantConfig {
	min, max := sc.RangeMin, sc.RangeMax
	if !(max > min) {
		min, max = 0, 255
	}
	return sensor.RedundantConfig{RangeMin: min, RangeMax: max}
}

// sensorPipeline builds a unit's full measurement pipeline: the plain
// single chain when voting is off, or v.Sensors replica chains fused by a
// sensor.Redundant voter. The returned *Redundant is non-nil only in the
// voting case; callers hand it to the unit's failSafePolicy via a
// votingHandle.
func sensorPipeline(cfg sim.Config, f *FaultSpec, segs []*FaultSpec, v *VotingSpec) (*sensor.Pipeline, *sensor.Redundant, error) {
	if v == nil {
		stages, err := replicaStages(cfg, f, segs, 0)
		if err != nil {
			return nil, nil, err
		}
		return sensor.NewPipeline(stages...), nil, nil
	}
	chains := make([]sensor.Stage, v.Sensors)
	for j := range chains {
		stages, err := replicaStages(cfg, f, segs, j)
		if err != nil {
			return nil, nil, err
		}
		chains[j] = sensor.NewPipeline(stages...)
	}
	red, err := sensor.NewRedundant(redundantConfig(cfg.Sensor), chains...)
	if err != nil {
		return nil, nil, err
	}
	return sensor.NewPipeline(red), red, nil
}

// votingHandle connects a unit's voter (built by the server factory) to
// its failSafePolicy (built by the policy factory). The fleet engine
// builds servers once per run but rebuilds policies every relaxation
// pass, so the two constructions cannot share a closure — they share
// this per-unit holder instead.
type votingHandle struct{ r *sensor.Redundant }

// failSafePolicy wraps a unit's policy with the redundancy escalation:
// while the voter reports FailSafe, closed-loop output no longer has a
// trustworthy input, so the command degrades to open-loop safe cooling —
// fan at least at the floor, cap released (a wedged sensor must not keep
// the CPU throttled AND the reading is unusable for modulating the fan).
// The hardware throttle (TProtect) remains the independent backstop.
// One-tick staleness is inherent: the engine steps the policy before the
// tick's sample, so Health reflects the previous measurement.
type failSafePolicy struct {
	inner sim.Policy
	h     *votingHandle
	floor units.RPM
}

func (p *failSafePolicy) Name() string { return p.inner.Name() + "+failsafe" }

func (p *failSafePolicy) Step(o sim.Observation) sim.Command {
	cmd := p.inner.Step(o)
	if p.h.r != nil && p.h.r.Health() == sensor.HealthFailSafe {
		if cmd.Fan < p.floor {
			cmd.Fan = p.floor
		}
		cmd.Cap = 1
	}
	return cmd
}

func (p *failSafePolicy) Reset() { p.inner.Reset() }

package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// ciSmokeSpec is the spec scripts/ci.sh submits to a live scenariod.
const ciSmokeSpec = `{
  "kind": "single",
  "name": "ci-smoke",
  "duration": 300,
  "jobs": [{
    "workload": {"name": "noisy-square", "seed": 7, "params": {"period": 300, "sigma": 0.05}},
    "policy": {"name": "full"}
  }]
}`

// decodeSpec decodes a submit body the way scenariod's POST handler
// does: one JSON value, with unknown fields rejected.
func decodeSpec(data []byte) (Spec, error) {
	var s Spec
	err := DecodeStrict(bytes.NewReader(data), &s)
	return s, err
}

// FuzzSpecKey fuzzes the submit path's trust boundary: decoding,
// Validate and Key never panic, and a valid spec stays valid and keeps
// its Key across a json.Marshal and decode round trip (a key that moved
// would split one scenario over two store cells).
func FuzzSpecKey(f *testing.F) {
	rack := faultFleetTarget(120, true).Spec
	rack.Fleet.Segments = []BusSegment{{Name: "bus0", Nodes: []string{"n1"}, Faults: &FaultSpec{DropoutRate: 0.5, DropoutSeed: 9}}}
	rack.Voting = &VotingSpec{Sensors: 3}
	generated := Spec{
		Kind: KindFleet, Name: "generated", Duration: 600,
		Fleet: &FleetSpec{Size: 4, Layout: []string{"cold", "mid", "hot"}, Seed: 1, Recirc: 0.03},
	}
	for _, s := range []Spec{cheapSpec(25), generated, rack} {
		if err := s.Validate(); err != nil {
			f.Fatalf("seed %s: %v", s.Name, err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(ciSmokeSpec))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil || spec.Validate() != nil {
			return
		}
		key, err := Key(spec)
		if err != nil {
			t.Fatalf("valid spec does not hash: %v", err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not encode: %v", err)
		}
		back, err := decodeSpec(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round trip made the spec invalid: %v\n%s", err, enc)
		}
		if got, err := Key(back); err != nil || got != key {
			t.Fatalf("round trip moved the key %s -> %s (%v)\n%s", key, got, err, enc)
		}
	})
}

// decodeOutcome decodes one Outcome strictly: unknown fields are
// rejected.
func decodeOutcome(data []byte) (*Outcome, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var o Outcome
	if err := dec.Decode(&o); err != nil {
		return nil, err
	}
	return &o, nil
}

// dropEmpty sets the omitempty collections that decoded empty to nil:
// "aggregate":{} and an absent aggregate encode the same, so they are
// the same outcome.
func dropEmpty(o *Outcome) {
	if len(o.Aggregate) == 0 {
		o.Aggregate = nil
	}
	for i := range o.Units {
		u := &o.Units[i]
		if len(u.Labels) == 0 {
			u.Labels = nil
		}
		if len(u.Series) == 0 {
			u.Series = nil
		}
	}
}

// FuzzOutcomeRoundTrip fuzzes the bytes a store cell or a pushed
// outcome carries: whatever strictly decodes as an Outcome re-encodes,
// decodes back to an equal value and re-encodes to the same bytes, so a
// cached outcome hashes like the run that produced it.
func FuzzOutcomeRoundTrip(f *testing.F) {
	recorded := cheapSpec(25)
	recorded.Duration = 10
	recorded.Record = true
	batch := cheapSpec(27)
	batch.Kind = KindBatch
	batch.Jobs = append(batch.Jobs, JobSpec{
		Workload: FactoryRef{Name: "square", Params: Params{"period": 60}},
		Policy:   FactoryRef{Name: "full"},
	})
	fault := faultJobTarget(60).Spec
	fault.Kind = KindFaultSweep
	fault.Jobs[0].Faults = &FaultSpec{StuckAt: 10, StuckLen: 20}
	for _, s := range []Spec{
		recorded,
		batch,
		{Kind: KindFleet, Name: "fleet", Duration: 60, Fleet: &FleetSpec{Size: 2, Seed: 1}},
		faultFleetTarget(60, true).Spec,
		{Kind: KindMulticore, Duration: 60, Multicore: &MulticoreSpec{Workload: FactoryRef{Name: "constant"}}},
		fault,
	} {
		out, err := Run(s)
		if err != nil {
			f.Fatalf("seed %s: %v", s.Kind, err)
		}
		data, err := json.Marshal(out)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeOutcome(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("decoded outcome does not encode: %v", err)
		}
		back, err := decodeOutcome(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		dropEmpty(o)
		if !reflect.DeepEqual(o, back) {
			t.Fatalf("round trip changed the outcome\n%#v\n%#v", o, back)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding moved the bytes\n%s\n%s", enc, again)
		}
	})
}

package scenario

import (
	"bytes"
	"encoding/json"
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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	err := dec.Decode(&s)
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

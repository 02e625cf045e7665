package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// goldenSpec is the canonical fixture for hash-stability tests: every
// spec field class populated with fixed values.
func goldenSpec() Spec {
	cfg := sim.Default()
	cfg.Ambient = 30
	return Spec{
		Kind:     KindLockstep,
		Name:     "golden",
		Base:     &cfg,
		Duration: 1200,
		Jobs: []JobSpec{
			{
				Name:      "a",
				Workload:  FactoryRef{Name: "noisy-square", Seed: 42, Params: Params{"period": 600, "sigma": 0.04}},
				Policy:    FactoryRef{Name: "full"},
				WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
			},
			{
				Name:     "b",
				Workload: FactoryRef{Name: "noisy-square", Seed: 42, Params: Params{"period": 600, "sigma": 0.04}},
				Policy:   FactoryRef{Name: "rcoord", Params: Params{"ref_temp": 75}},
				Faults:   &FaultSpec{StuckAt: 100, StuckLen: 60, DropoutRate: 0.1, DropoutSeed: 5},
			},
		},
	}
}

// TestKeyGolden pins the content addresses of canonical specs. These
// values are the store's on-disk contract: a change here invalidates
// every existing store, so it must be a deliberate, versioned decision —
// not a side effect of a refactor.
func TestKeyGolden(t *testing.T) {
	golden := map[string]func() Spec{
		"236c43152a15f928a8611490bbc719188d7af8cea7c79631a5ab5c77077d8fb3": goldenSpec,
		"675e5826c6f5390dc3cde13daaf557c0ca1142579ec887bc5b77ce41c8aaa014": func() Spec { return cheapSpec(25) },
		"e4e8797e94a085f1f5d8329b2f15a7836f3a2fd5ac5ee9f8ba5679c9eb2702c2": func() Spec {
			return Spec{
				Kind:     KindFleet,
				Name:     "rack",
				Duration: 600,
				Fleet: &FleetSpec{
					Size:   4,
					Layout: []string{"cold", "mid", "hot"},
					Seed:   1,
					Recirc: 0.01,
				},
			}
		},
		// Key runs no Validate, so this entry still pins how a fleetcoord
		// spec and a two-entry Params map canonicalize.
		"17c743d1f66f81ea5986f49856f02089eea86920eafb99c7be5a63378d05599f": func() Spec {
			s := goldenFleetCoordSpec()
			s.Params = Params{"migration_gain": 0.5, "power_budget_w": 520}
			return s
		},
	}
	for want, build := range golden {
		got, err := Key(build())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			canon, _ := CanonicalJSON(build())
			t.Errorf("golden key drifted:\n got %s\nwant %s\ncanonical: %s", got, want, canon)
		}
	}
}

// goldenFleetCoordSpec is the canonical coordinator-scenario fixture: the
// kind plus its Params knob, which is semantic and must move the content
// address.
func goldenFleetCoordSpec() Spec {
	return Spec{
		Kind:     KindFleetCoord,
		Name:     "rack-coord",
		Duration: 600,
		Fleet: &FleetSpec{
			Size:   4,
			Layout: []string{"cold", "mid", "hot"},
			Seed:   1,
			Recirc: 0.03,
		},
		Params: Params{"power_budget_w": 520},
	}
}

// TestKeyFleetCoordSemanticEdits: the coordinator kind and its budget
// knob are part of a cell's identity — and Workers still is not.
func TestKeyFleetCoordSemanticEdits(t *testing.T) {
	base, err := Key(goldenFleetCoordSpec())
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(*Spec){
		"kind fleet vs fleetcoord": func(s *Spec) { s.Kind = KindFleet; s.Params = nil },
		"budget knob":              func(s *Spec) { s.Params["power_budget_w"] = 600 },
		"drop knobs":               func(s *Spec) { s.Params = nil },
		"rack recirc":              func(s *Spec) { s.Fleet.Recirc = 0.05 },
	}
	for name, edit := range edits {
		s := goldenFleetCoordSpec()
		edit(&s)
		if err := s.Validate(); err != nil {
			t.Fatalf("edit %q produced an invalid spec: %v", name, err)
		}
		k, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("edit %q did not change the key", name)
		}
	}
	s := goldenFleetCoordSpec()
	s.Workers = 5
	if k, _ := Key(s); k != base {
		t.Error("Workers changed the fleetcoord key")
	}
}

// TestKeyFleetNodeFaults: a fleet node's fault block is part of the
// cell's identity — and a fault-free explicit-node spec keys identically
// whether the Faults field is nil or simply absent (there is no way to
// populate an "empty but present" block; Validate rejects inert ones).
func TestKeyFleetNodeFaults(t *testing.T) {
	mk := func(f *FaultSpec) Spec {
		return Spec{
			Kind:     KindFleet,
			Name:     "faulty-rack",
			Duration: 600,
			Fleet: &FleetSpec{
				Nodes: []FleetNode{
					{
						Name: "n0", Aisle: "cold", Slot: 0,
						Workload: FactoryRef{Name: "constant", Params: Params{"u": 0.5}},
						Policy:   FactoryRef{Name: "full"},
						Faults:   f,
					},
					{
						Name: "n1", Aisle: "hot", Slot: 0,
						Workload: FactoryRef{Name: "constant", Params: Params{"u": 0.5}},
						Policy:   FactoryRef{Name: "full"},
					},
				},
			},
		}
	}
	clean, err := Key(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*FaultSpec{
		"stuck":     {StuckAt: 100, StuckLen: 60},
		"dropout":   {DropoutRate: 0.2, DropoutSeed: 9},
		"placement": {PlacementCoeff: 0.08},
		"calib":     {CalibSigma: 4, CalibSeed: 3},
		"slew":      {SlewLimitCPerS: 0.05},
	} {
		s := mk(f)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		if k == clean {
			t.Errorf("node fault %q did not change the key", name)
		}
	}
	// Bus segments are identity too: arming one moves the key, and so
	// does every semantic edit inside the segment.
	withSeg := func(f *FaultSpec) Spec {
		s := mk(nil)
		s.Fleet.Segments = []BusSegment{{Name: "bus0", Nodes: []string{"n1"}, Faults: f}}
		return s
	}
	segBase := withSeg(&FaultSpec{DropoutRate: 0.3, DropoutSeed: 5})
	if err := segBase.Validate(); err != nil {
		t.Fatal(err)
	}
	segKey, err := Key(segBase)
	if err != nil {
		t.Fatal(err)
	}
	if segKey == clean {
		t.Error("bus segment did not change the key")
	}
	for name, s := range map[string]Spec{
		"segment name": func() Spec {
			s := withSeg(&FaultSpec{DropoutRate: 0.3, DropoutSeed: 5})
			s.Fleet.Segments[0].Name = "bus1"
			return s
		}(),
		"segment nodes": func() Spec {
			s := withSeg(&FaultSpec{DropoutRate: 0.3, DropoutSeed: 5})
			s.Fleet.Segments[0].Nodes = []string{"n0"}
			return s
		}(),
		"segment fault": withSeg(&FaultSpec{DropoutRate: 0.4, DropoutSeed: 5}),
		"segment lag":   withSeg(&FaultSpec{DropoutRate: 0.3, DropoutSeed: 5, AddedLagS: 10}),
	} {
		k, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		if k == segKey {
			t.Errorf("segment edit %q did not change the key", name)
		}
	}
}

// TestKeyMapOrderInvariant: the hash must not depend on how parameter
// maps were populated (Go randomizes map iteration; the canonical JSON
// sorts keys).
func TestKeyMapOrderInvariant(t *testing.T) {
	mk := func(order []string) Spec {
		s := cheapSpec(25)
		p := make(Params)
		vals := map[string]float64{"period": 600, "sigma": 0.04, "spike_len": 30, "duration": 7200}
		for _, k := range order {
			p[k] = vals[k]
		}
		s.Jobs[0].Workload = FactoryRef{Name: "table3", Seed: 42, Params: p}
		return s
	}
	a, err := Key(mk([]string{"period", "sigma", "spike_len", "duration"}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, err := Key(mk([]string{"duration", "spike_len", "sigma", "period"}))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("key depends on map population order: %s != %s", a, b)
		}
	}
}

// TestKeyChangesOnSemanticEdits: every semantic field must move the
// hash; the Workers execution knob must not.
func TestKeyChangesOnSemanticEdits(t *testing.T) {
	base, err := Key(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(*Spec){
		"kind":            func(s *Spec) { s.Kind = KindBatch },
		"name":            func(s *Spec) { s.Name = "other" },
		"duration":        func(s *Spec) { s.Duration = 1201 },
		"record":          func(s *Spec) { s.Record = true },
		"base ambient":    func(s *Spec) { s.Base.Ambient = 31 },
		"base tick":       func(s *Spec) { s.Base.Tick = 2 },
		"job name":        func(s *Spec) { s.Jobs[0].Name = "z" },
		"workload name":   func(s *Spec) { s.Jobs[0].Workload.Name = "square" },
		"workload seed":   func(s *Spec) { s.Jobs[0].Workload.Seed = 43 },
		"workload param":  func(s *Spec) { s.Jobs[0].Workload.Params["sigma"] = 0.05 },
		"policy name":     func(s *Spec) { s.Jobs[0].Policy.Name = "none" },
		"policy param":    func(s *Spec) { s.Jobs[1].Policy.Params["ref_temp"] = 76 },
		"warm start":      func(s *Spec) { s.Jobs[0].WarmStart.Fan = 1300 },
		"drop warm start": func(s *Spec) { s.Jobs[0].WarmStart = nil },
		"fault window":    func(s *Spec) { s.Jobs[1].Faults.StuckLen = 61 },
		"fault rate":      func(s *Spec) { s.Jobs[1].Faults.DropoutRate = 0.2 },
		"fault placement": func(s *Spec) { s.Jobs[1].Faults.PlacementCoeff = 0.05 },
		"fault calib":     func(s *Spec) { s.Jobs[1].Faults.CalibSigma = 3 },
		"fault calibseed": func(s *Spec) { s.Jobs[1].Faults.CalibSigma = 3; s.Jobs[1].Faults.CalibSeed = 7 },
		"fault slew":      func(s *Spec) { s.Jobs[1].Faults.SlewLimitCPerS = 0.05 },
		"fault added lag": func(s *Spec) { s.Jobs[1].Faults.AddedLagS = 5 },
		"voting armed":    func(s *Spec) { s.Voting = &VotingSpec{Sensors: 3} },
		"voting replicas": func(s *Spec) { s.Voting = &VotingSpec{Sensors: 5} },
		"job order":       func(s *Spec) { s.Jobs[0], s.Jobs[1] = s.Jobs[1], s.Jobs[0] },
		"extra job":       func(s *Spec) { s.Jobs = append(s.Jobs, s.Jobs[0]) },
	}
	for name, edit := range edits {
		s := goldenSpec()
		edit(&s)
		k, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("edit %q did not change the key", name)
		}
	}
	// Workers is an execution knob: any value, same identity.
	for _, workers := range []int{0, 1, 7} {
		s := goldenSpec()
		s.Workers = workers
		k, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		if k != base {
			t.Errorf("Workers=%d changed the key", workers)
		}
	}
}

// TestStoreRoundTrip: a stored outcome reads back bit-identical,
// including recorded series (float64 survives the JSON round trip).
func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(26)
	spec.Record = true
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.GetKey(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	back, ok, err := st.GetKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("miss after Put")
	}
	a, _ := json.Marshal(out)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Error("outcome changed across the store round trip")
	}
	if got := SimMetrics(&back.Units[0]); got != SimMetrics(&out.Units[0]) {
		t.Error("metrics changed across the store round trip")
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d (%v), want 1", n, err)
	}
}

// TestStoreVersionMismatchIsMiss: a cell written by a different format
// version, one that does not decode (torn or corrupt), and one that
// holds the right spec but no outcome or an outcome that does not decode
// as an Outcome reads as a miss, not an error, through GetKey and
// GetEncoded alike, and the next Put overwrites it. Put refuses to write
// an outcome-less cell.
func TestStoreVersionMismatchIsMiss(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(26)
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(spec)
	path := filepath.Join(st.Dir(), key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entry storeEntry
	if err := json.Unmarshal(b, &entry); err != nil {
		t.Fatal(err)
	}
	entry.Version = storeVersion + 1
	future, _ := json.Marshal(entry)
	// withOutcome is the stored cell with its outcome member replaced, or
	// dropped for "", so only the outcome is at fault.
	withOutcome := func(outcome string) []byte {
		var members map[string]json.RawMessage
		if err := json.Unmarshal(b, &members); err != nil {
			t.Fatal(err)
		}
		delete(members, "outcome")
		if outcome != "" {
			members["outcome"] = json.RawMessage(outcome)
		}
		cell, err := json.Marshal(members)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	for _, tc := range []struct {
		name string
		cell []byte
	}{
		{"future-version", future},
		{"corrupt", b[:len(b)/2]},
		{"no-outcome", withOutcome("")},
		{"null-outcome", withOutcome("null")},
		{"number-outcome", withOutcome("5")},
		{"wrong-shaped-outcome", withOutcome(`{"units":"x"}`)},
	} {
		if err := os.WriteFile(path, tc.cell, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.GetKey(key); err != nil || ok {
			t.Errorf("%s cell: ok=%v err=%v, want miss without error", tc.name, ok, err)
		}
		if _, ok, err := st.GetEncoded(key); err != nil || ok {
			t.Errorf("%s cell, encoded read: ok=%v err=%v, want miss without error", tc.name, ok, err)
		}
		if err := st.Put(spec, out); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.GetKey(key); err != nil || !ok {
			t.Errorf("%s cell after Put: ok=%v err=%v, want hit", tc.name, ok, err)
		}
		if _, ok, err := st.GetEncoded(key); err != nil || !ok {
			t.Errorf("%s cell after Put, encoded read: ok=%v err=%v, want hit", tc.name, ok, err)
		}
	}
	if err := st.Put(spec, nil); err == nil {
		t.Error("Put stored a nil outcome")
	}
}

// TestStoreCellBytes: Put writes the cell the MarshalIndent of the
// decoded entry gives, as the store always has, PutEncoded of the
// outcome's json.Marshal output writes the same file, and GetEncoded
// reads that output back. The outcomes cover recorded series, several
// units, aggregates, and strings holding whitespace, quotes, escapes
// and characters encoding/json escapes for HTML.
func TestStoreCellBytes(t *testing.T) {
	recorded := cheapSpec(26)
	recorded.Record = true
	batch := cheapSpec(27)
	batch.Kind = KindBatch
	batch.Jobs = append(batch.Jobs, JobSpec{
		Workload: FactoryRef{Name: "square", Params: Params{"period": 60}},
		Policy:   FactoryRef{Name: "full"},
	})
	fleet := Spec{Kind: KindFleet, Name: "fleet", Duration: 60, Fleet: &FleetSpec{Size: 2, Seed: 1}}
	var outs []*Outcome
	for _, s := range []Spec{recorded, batch, fleet} {
		out, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	odd := *outs[0]
	odd.Units = append([]Unit{{
		Name:    "a \"quoted\" <b> & \\ name\twith\nspace \u2028 é",
		Labels:  map[string]string{" key ": "{ \"v\": [1, 2] }"},
		Metrics: map[string]float64{"x y": -0.0, "big": 1e21, "small": 1e-7},
	}}, odd.Units...)
	outs = append(outs, &odd)
	specs := []Spec{recorded, batch, fleet, cheapSpec(28)}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		spec := specs[i]
		key, err := Key(spec)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := json.MarshalIndent(struct {
			Version int      `json:"version"`
			Key     string   `json:"key"`
			Spec    Spec     `json:"spec"`
			Outcome *Outcome `json:"outcome"`
		}{storeVersion, key, spec, out}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(st.Dir(), key+".json")
		for _, put := range []func() error{
			func() error { return st.Put(spec, out) },
			func() error { return st.PutEncoded(spec, enc) },
		} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if err := put(); err != nil {
				t.Fatal(err)
			}
			cell, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(cell) != string(legacy) {
				t.Errorf("outcome %d: cell file differs from the MarshalIndent of the entry", i)
			}
			got, ok, err := st.GetEncoded(key)
			if err != nil || !ok || string(got) != string(enc) {
				t.Errorf("outcome %d: GetEncoded = ok %v err %v, %d bytes; want json.Marshal's %d", i, ok, err, len(got), len(enc))
			}
			if len(got) != cap(got) {
				t.Errorf("outcome %d: GetEncoded holds %d spare bytes", i, cap(got)-len(got))
			}
		}
	}
}

// TestStoreGetRefusesStaleCells: a key answers only with the outcome of
// the spec that hashes to it. GetEncoded and GetKey read back a cell Put
// wrote, but miss, without error, on cells for a spec Validate refuses,
// for a spec with a member the format lacks, for a spec that hashes to
// another key, and on a cell copied under another valid spec's key.
func TestStoreGetRefusesStaleCells(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(29)
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutEncoded(spec, enc); err != nil {
		t.Fatal(err)
	}
	key, _ := Key(spec)
	if got, ok, err := st.GetEncoded(key); err != nil || !ok || string(got) != string(enc) {
		t.Errorf("stored cell: GetEncoded ok %v err %v, %d bytes; want json.Marshal's %d", ok, err, len(got), len(enc))
	}
	if got, ok, err := st.GetKey(key); err != nil || !ok {
		t.Errorf("stored cell: GetKey ok %v err %v, want a hit", ok, err)
	} else if b, _ := json.Marshal(got); string(b) != string(enc) {
		t.Error("stored cell: GetKey's outcome encodes to other bytes than the stored one")
	}

	refused := spec
	refused.Duration = -1
	if err := st.PutEncoded(refused, enc); err != nil {
		t.Fatal(err)
	}
	canon, _ := CanonicalJSON(spec)
	unknown := append([]byte(`{"retired":1,`), canon[1:]...)
	moved := []byte(strings.Replace(string(canon), `"Ambient":29,`, "", 1))
	if string(moved) == string(canon) {
		t.Fatal("the canonical spec holds no Ambient member")
	}
	refusedKey, _ := Key(refused)
	keys := []string{refusedKey}
	for _, spec := range [][]byte{unknown, moved} {
		key := KeyOf(spec)
		cell, err := json.MarshalIndent(struct {
			Version int             `json:"version"`
			Key     string          `json:"key"`
			Spec    json.RawMessage `json:"spec"`
			Outcome json.RawMessage `json:"outcome"`
		}{storeVersion, key, spec, enc}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(key), cell, 0o644); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	misfiled, _ := Key(cheapSpec(30))
	cell, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(misfiled), cell, 0o644); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, misfiled)
	for i, key := range keys {
		if _, ok, err := st.GetEncoded(key); err != nil || ok {
			t.Errorf("cell %d: GetEncoded ok %v err %v, want a miss without error", i, ok, err)
		}
		if _, ok, err := st.GetKey(key); err != nil || ok {
			t.Errorf("cell %d: GetKey ok %v err %v, want a miss without error", i, ok, err)
		}
	}
}

// TestPutLeavesNoTempFile: neither a Put that commits its cell nor one
// whose rename fails (the cell's path is a directory) leaves its temp
// file behind.
func TestPutLeavesNoTempFile(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(26)
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	tempFiles := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(st.Dir(), ".*.tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	if names := tempFiles(); len(names) != 0 {
		t.Errorf("a committed Put left %v", names)
	}

	blocked := cheapSpec(27)
	key, err := Key(blocked)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(st.Dir(), key+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(blocked, out); err == nil {
		t.Fatal("Put renamed its cell onto a directory")
	}
	if names := tempFiles(); len(names) != 0 {
		t.Errorf("a Put whose rename failed left %v", names)
	}
}

// TestSweepResume is the store's reason to exist: a sweep killed halfway
// loses nothing — the rerun computes only the missing cells, and a fully
// warm sweep performs zero simulation ticks.
func TestSweepResume(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{cheapSpec(24), cheapSpec(26), cheapSpec(28), cheapSpec(30)}

	// Reference outcomes, computed without any store.
	var want []*Outcome
	for _, s := range specs {
		out, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}

	// "Kill the sweep halfway": only the first half runs.
	half, err := Sweep(specs[:2], st)
	if err != nil {
		t.Fatal(err)
	}
	if half.Hits != 0 || half.Misses != 2 {
		t.Fatalf("first half: %d hits / %d misses, want 0/2", half.Hits, half.Misses)
	}

	// The rerun over the full grid recomputes only the missing cells.
	runsBefore := ProbeRuns()
	full, err := Sweep(specs, st)
	if err != nil {
		t.Fatal(err)
	}
	if full.Hits != 2 || full.Misses != 2 {
		t.Fatalf("resume: %d hits / %d misses, want 2/2", full.Hits, full.Misses)
	}
	if executed := ProbeRuns() - runsBefore; executed != 2 {
		t.Errorf("resume executed %d runs, want 2", executed)
	}
	for i, cell := range full.Cells {
		a, _ := json.Marshal(cell.Outcome)
		b, _ := json.Marshal(want[i])
		if string(a) != string(b) {
			t.Errorf("cell %d outcome differs from a storeless run", i)
		}
		if wantCached := i < 2; cell.Cached != wantCached {
			t.Errorf("cell %d cached=%v, want %v", i, cell.Cached, wantCached)
		}
	}

	// Fully warm: all hits, zero simulation ticks (the acceptance bar).
	ticksBefore, runsBefore := ProbeSimTicks(), ProbeRuns()
	warm, err := Sweep(specs, st)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hits != len(specs) || warm.Misses != 0 {
		t.Fatalf("warm: %d hits / %d misses, want %d/0", warm.Hits, warm.Misses, len(specs))
	}
	if d := ProbeSimTicks() - ticksBefore; d != 0 {
		t.Errorf("warm sweep simulated %d ticks, want 0", d)
	}
	if d := ProbeRuns() - runsBefore; d != 0 {
		t.Errorf("warm sweep executed %d runs, want 0", d)
	}
	for i, cell := range warm.Cells {
		a, _ := json.Marshal(cell.Outcome)
		b, _ := json.Marshal(want[i])
		if string(a) != string(b) {
			t.Errorf("warm cell %d outcome differs", i)
		}
	}
}

// TestSweepRefusesStoredInvalidSpec: a cell stored for a spec Validate
// refuses (written before the check existed) is not served; the sweep
// returns the validation error, as Run and scenariod would.
func TestSweepRefusesStoredInvalidSpec(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(25)
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 0
	if err := st.Put(spec, out); err != nil {
		t.Fatal(err)
	}
	res, err := Sweep([]Spec{spec}, st)
	if err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("sweep of a stored invalid spec: err = %v, want the duration error", err)
	}
	if res.Hits != 0 || len(res.Cells) != 0 {
		t.Errorf("sweep served %d hits / %d cells, want none", res.Hits, len(res.Cells))
	}
}

// TestSweepWithoutStore still runs every cell.
func TestSweepWithoutStore(t *testing.T) {
	res, err := Sweep([]Spec{cheapSpec(24), cheapSpec(25)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || res.Misses != 2 || len(res.Cells) != 2 {
		t.Errorf("storeless sweep: %+v", res)
	}
}

// TestProbeTicksCountSimulation: running a scenario moves the tick probe
// by exactly the simulated tick count.
func TestProbeTicksCountSimulation(t *testing.T) {
	spec := cheapSpec(25)
	before := ProbeSimTicks()
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if d := ProbeSimTicks() - before; d != int64(float64(spec.Duration)/float64(units.Seconds(1))) {
		t.Errorf("probe moved %d ticks, want %v", d, spec.Duration)
	}
}

// TestStoreList: the inspection listing reports key, kind, name, unit
// count and on-disk size per cell, sorted by key, including cells written
// by other format versions.
func TestStoreList(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if infos, err := st.List(); err != nil || len(infos) != 0 {
		t.Fatalf("empty store listed %d cells (%v)", len(infos), err)
	}
	specs := []Spec{cheapSpec(24), cheapSpec(26)}
	for _, s := range specs {
		out, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(s, out); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d cells, want 2", len(infos))
	}
	wantKeys := make(map[string]bool)
	for _, s := range specs {
		k, _ := Key(s)
		wantKeys[k] = true
	}
	for i, info := range infos {
		if !wantKeys[info.Key] {
			t.Errorf("cell %d: unexpected key %s", i, info.Key)
		}
		if info.Kind != KindSingle || info.Name != "cheap" {
			t.Errorf("cell %d: kind/name = %q/%q", i, info.Kind, info.Name)
		}
		if info.Units != 1 {
			t.Errorf("cell %d: units = %d, want 1", i, info.Units)
		}
		if info.Version != storeVersion {
			t.Errorf("cell %d: version = %d", i, info.Version)
		}
		if info.Size <= 0 {
			t.Errorf("cell %d: size = %d", i, info.Size)
		}
		if i > 0 && infos[i-1].Key >= info.Key {
			t.Error("listing not sorted by key")
		}
	}

	// A future-version cell still appears in the listing (with its own
	// version) even though Get treats it as a miss.
	path := filepath.Join(st.Dir(), infos[0].Key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entry storeEntry
	if err := json.Unmarshal(b, &entry); err != nil {
		t.Fatal(err)
	}
	entry.Version = storeVersion + 1
	b, _ = json.Marshal(entry)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err = st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Version != storeVersion+1 {
		t.Errorf("future-version cell mislisted: %+v", infos)
	}

	// A cell that does not decode is listed as version 0 instead of
	// failing the whole listing.
	torn := []byte(`{"version": 1, "spec": {"kind": "sin`)
	if err := os.WriteFile(filepath.Join(st.Dir(), "torn.json"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err = st.List()
	if err != nil {
		t.Fatalf("listing with a corrupt cell: %v", err)
	}
	if len(infos) != 3 || infos[2] != (CellInfo{Key: "torn", Size: int64(len(torn))}) {
		t.Errorf("corrupt cell mislisted: %+v", infos)
	}
}

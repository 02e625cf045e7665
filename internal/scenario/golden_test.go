package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"testing"

	"repro/internal/sim"
)

// recordedGoldenSpecs are short recorded specs covering every engine path
// that fills Unit.Series: plain single runs, lockstep batches, racks and
// coordinated racks, multicore, a horizon shorter than one tick, a voting
// fault cell, and the Fig. 1 telemetry probe.
func recordedGoldenSpecs(t *testing.T) map[string]Spec {
	warm := &sim.WarmPoint{Util: 0.1, Fan: 1200}
	single := Spec{
		Kind: KindSingle, Name: "golden-single", Duration: 300, Record: true,
		Jobs: []JobSpec{{
			Workload:  FactoryRef{Name: "noisy-square", Seed: 7, Params: Params{"period": 120, "sigma": 0.04}},
			Policy:    FactoryRef{Name: "full"},
			WarmStart: warm,
		}},
	}
	half := single
	half.Name, half.Duration = "golden-half-tick", 0.5

	base := sim.Default()
	base.Ambient = 33
	table3 := FactoryRef{Name: "table3", Seed: 3, Params: Params{"period": 120, "sigma": 0.04, "spike_len": 30, "duration": 300}}
	var jobs []JobSpec
	for _, p := range []FactoryRef{{Name: "none"}, {Name: "rcoord", Params: Params{"ref_temp": 75}}, {Name: "full"}} {
		jobs = append(jobs, JobSpec{Workload: table3, Policy: p, WarmStart: warm})
	}
	batch := Spec{Kind: KindBatch, Name: "golden-batch", Base: &base, Duration: 300, Jobs: jobs, Record: true}

	fleet := Spec{
		Kind: KindFleet, Name: "golden-fleet", Duration: 300, Record: true,
		Fleet: &FleetSpec{Size: 4, Seed: 5, Recirc: 0.03},
	}
	coord := Spec{
		Kind: KindFleetCoord, Name: "golden-fleetcoord", Duration: 300, Record: true,
		Fleet:  &FleetSpec{Size: 4, Seed: 5, Recirc: 0.03},
		Params: Params{"power_budget_w": 550},
	}
	multicore := Spec{
		Kind: KindMulticore, Name: "golden-multicore", Duration: 300, Record: true,
		Multicore: &MulticoreSpec{
			Workload: FactoryRef{Name: "noisy-square", Seed: 7, Params: Params{"period": 120, "sigma": 0.04}},
			Skewed:   true,
		},
	}
	voting, err := FaultCellSpec(faultJobTarget(300), FaultStuck, 1, 11, DefaultVoting())
	if err != nil {
		t.Fatal(err)
	}
	voting.Record = true

	return map[string]Spec{
		"single":      single,
		"half-tick":   half,
		"batch":       batch,
		"fleet":       fleet,
		"fleetcoord":  coord,
		"multicore":   multicore,
		"voting-cell": voting,
		"fig1":        fig1Spec(),
	}
}

// recordedGoldenHashes are the SHA-256 digests of each spec's outcome
// JSON, in a fixed order. They pin the recorded series byte for byte, as
// stored and served; a deliberate engine change moves them together with
// bench's engine goldens.
var recordedGoldenHashes = []struct{ name, hash string }{
	{"single", "79ea1ebd7210c8d357811bab4ce66735f1519bec15192e4664a1aa008caec592"},
	{"half-tick", "1afa4ef3f265b41ce1a73c04c285e8dc7cdc7c42088b6768122e309f5b8c86d7"},
	{"batch", "12946b130f91807ac4f46fc17cb81e197644ea41b3134d693b37c08ec4741909"},
	{"fleet", "367acbe499f7feae57234c2b14978f9b8aefb07c67cf71236d66223a3c0b0d54"},
	{"fleetcoord", "37ef4cdccca519ba45560c1cd0d04eb0eb27b6afcb682d5097b8821218472192"},
	{"multicore", "68e389101bf5b3bfda492ed5dd25c63aed17c758c9f7db00acd64f2ff83652cd"},
	{"voting-cell", "46c5d6ee92399edc4c37b94b87caeffcb47033475c9c64657f64cecf04dbaf00"},
	{"fig1", "9f4700d9810a4f2333b1e316561f89493d3a620d3768fb902a60394705c2b15a"},
}

// TestRecordedOutcomeGolden pins the outcome JSON of recorded specs, and
// checks that later Runs — the same spec again, then the spec 1 °C
// warmer (fig1: its step 1 s later), which records different values —
// leave the first outcome's bytes unchanged: an outcome must not alias engine state that a
// later run writes into.
func TestRecordedOutcomeGolden(t *testing.T) {
	specs := recordedGoldenSpecs(t)
	if len(specs) != len(recordedGoldenHashes) {
		t.Fatalf("%d specs for %d goldens", len(specs), len(recordedGoldenHashes))
	}
	for _, g := range recordedGoldenHashes {
		spec, ok := specs[g.name]
		if !ok {
			t.Fatalf("no spec for golden %q", g.name)
		}
		t.Run(g.name, func(t *testing.T) {
			first, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			before, err := json.Marshal(first)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(before)
			if got := hex.EncodeToString(sum[:]); got != g.hash {
				t.Errorf("outcome hash = %s, want %s", got, g.hash)
			}
			warmer := spec
			if spec.Kind == KindFig1 { // the probe runs on the default platform
				warmer.Params = maps.Clone(spec.Params)
				warmer.Params["step_time"]++
			} else {
				cfg := spec.base()
				cfg.Ambient++
				warmer.Base = &cfg
			}
			if spec.Fleet != nil { // a rack's inlets come from its supply
				fl := *spec.Fleet
				fl.Supply = 25 // the default is 24 °C
				warmer.Fleet = &fl
			}
			for _, again := range []Spec{spec, warmer} {
				if _, err := Run(again); err != nil {
					t.Fatal(err)
				}
			}
			after, err := json.Marshal(first)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("a later Run changed the first outcome's bytes")
			}
		})
	}
}

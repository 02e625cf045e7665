package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// specOutcomes pins the SHA-256 of the bytes `run -spec F` prints for
// every file under specs/: the key, the state and the outcome, so a
// change that moves any file's outcome, not only its key, fails here.
var specOutcomes = map[string]string{
	"ci-smoke.json":       "5faca756c55bf3703276f4b13c10d78535a62c5e17dd3fa4851ba02e94b43dff",
	"datacenter.json":     "632177733a9a207ccd06e0c6601071f8bbd5cdf1581b24a11db06e75aba6544a",
	"faults.json":         "f05af5bc83c085d18f6dac77fece621cab2d44c9a7902d2c5f1f51f0c8723e09",
	"fig1.json":           "0f35d31b5bf003ff4a1c9e5d3e7158bc9812d533e3648804e1fbaf69561c551c",
	"fig3.json":           "dea486c09713fc64f2e2fe16a86de54f768746f17c33ea2c1ac8ac2c669a9630",
	"fig4.json":           "4ca86975cd0c8f04134238e1318bafc520c06da456b3ec96392622ec76811afc",
	"fig5.json":           "e80d31f56cf4cd81b8b2d694b640bf9b7b8ebbdf72ddac3c242b797dc913dc3c",
	"fleet.json":          "95f53b65a09e35a1fd36469bbe870cf430549966772702665c510a7180d4e758",
	"fleetcoord.json":     "8da1120861a512fac525d5384f36f8f4557bac6118aacdd28f3738ba51384caf",
	"multicore.json":      "29fa6ef8efa5ecb04ad1cf56083ece617a7d0ebc5583db2435c805d35bcbcb76",
	"multicore-free.json": "e4e61a6f2e322de900f56ea1c16a958c9e862b33760e9d55671b005ddb8f67a5",
	"quickstart.json":     "62d00aca42c220c51c595162770e0cbf22d5c150c39902f0396c82a3e5e013cd",
	"table3.json":         "f8e69f81ccfce9b47ecda85a7597cf5488b30dae202d4c1155f024e88bda2572",
}

// TestRunMatchesSubmit: for every spec file under specs/, `run -spec F`
// prints the bytes `submit -wait -spec F` prints for a fresh in-process
// daemon's first submit of it, and those bytes hash to the file's entry
// in specOutcomes.
func TestRunMatchesSubmit(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(specOutcomes) {
		t.Errorf("%d spec files under specs/, %d in specOutcomes", len(files), len(specOutcomes))
	}
	d, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Stop(); err != nil {
			t.Errorf("stopping daemon: %v", err)
		}
	})
	c := service.NewClient(d.BaseURL())
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			var got bytes.Buffer
			if err := runCmd([]string{"-spec", file}, &got); err != nil {
				t.Fatal(err)
			}
			spec, err := readSpec(file)
			if err != nil {
				t.Fatal(err)
			}
			st, err := c.Submit(context.Background(), spec, true)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := printJSON(&want, st); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("run printed\n%.400s\nsubmit -wait printed\n%.400s", got.Bytes(), want.Bytes())
			}
			sum := sha256.Sum256(got.Bytes())
			if hash, want := hex.EncodeToString(sum[:]), specOutcomes[filepath.Base(file)]; hash != want {
				t.Errorf("run printed bytes hashing to %s, want %q", hash, want)
			}
		})
	}
}

// TestRunRefusesStrayArgument: a spec path given without -spec is
// refused by name, before run reads stdin in its place, and nothing is
// printed.
func TestRunRefusesStrayArgument(t *testing.T) {
	const path = "../../specs/ci-smoke.json"
	var out bytes.Buffer
	err := runCmd([]string{path}, &out)
	if err == nil || !strings.Contains(err.Error(), `stray argument "`+path+`"`) {
		t.Errorf("run %s = %v, want a stray argument error naming it", path, err)
	}
	if out.Len() != 0 {
		t.Errorf("run %s printed %q", path, out.Bytes())
	}
}

// specKeys pins the store key of every file under specs/: a key that
// moved would strand the file's cells in every store that holds them.
var specKeys = map[string]string{
	"ci-smoke.json":       "1fc65e50e369ab290e0c819eed6e227e0d3c49053f56ec1dfd2ca81662afc62b",
	"datacenter.json":     "817547e1cd203e712264f1efd2b8c84d9b5de266bf5197fea0726ecc173ffe9c",
	"faults.json":         "53fef886109d151e3b10cd7cfd8483ad49f4f09a3143a3ea4e5bb938bdca12ef",
	"fig1.json":           "54c4b2adf7e71e0fb6ddf7f268dc021ebc5b81f1438cfac84c111bf191a616a6",
	"fig3.json":           "06a5560d125928dd0bf0b899762dc525db75545728e14caea46d5bc52d679755",
	"fig4.json":           "0e67fc7119d826a3684533a18e27d9065ed8955dfb4639c117a95f79af6fae55",
	"fig5.json":           "1f2a16543095faa3b05118d05412ef34e11c0d4a888d2c058be929ca1a2d030f",
	"fleet.json":          "994744b3ae6b9b671f0c4e51555411ed770dce6cda57bba8c373830b27cb3822",
	"fleetcoord.json":     "f710f8fb5df7b7fec08974b4f03b3a8a084ea67ad70424b7681411e3bc117357",
	"multicore.json":      "c4f9349665536fff7c0edc4be245bec2fec46bd73eb3ca7acea5df26f707dbd2",
	"multicore-free.json": "f94b751431523a870f9ea1cf12542d0a1f46e565c6d3a5112d2e6743198c81b6",
	"quickstart.json":     "9778d2d3e8155aba4333b24e08951e6aa264771edf152290e8e84f8be03593b4",
	"table3.json":         "1c5955dca9aa786a92eb1c704e74f5a389f46213fddf2a1706f8e4f22ab66c94",
}

// TestRunSpecFiles: every file under specs/ keys to its entry in
// specKeys. run refuses a spec whose param its workload never reads with
// the error Validate gives, a file with data after its spec, a spec with
// a field or param the format no longer has and a rack with more
// recirc_passes than nodes, and prints nothing for any.
func TestRunSpecFiles(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(specKeys) {
		t.Errorf("%d spec files under specs/, %d in specKeys", len(files), len(specKeys))
	}
	for _, file := range files {
		spec, err := readSpec(file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scenario.Key(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := specKeys[filepath.Base(file)]; got != want {
			t.Errorf("%s keys to %s, want %q", file, got, want)
		}
	}

	data, err := os.ReadFile("../../specs/ci-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, bytes.Replace(data, []byte(`"period"`), []byte(`"perod"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(typo)
	if err != nil {
		t.Fatal(err)
	}
	verr := spec.Validate()
	if verr == nil {
		t.Fatal(`a spec with the param "perod" validates`)
	}
	var out bytes.Buffer
	if err := runCmd([]string{"-spec", typo}, &out); err == nil || err.Error() != verr.Error() {
		t.Errorf("run of a typo'd spec = %v, want %v", err, verr)
	}
	if out.Len() != 0 {
		t.Errorf("run of a typo'd spec printed %q", out.Bytes())
	}

	trailing := filepath.Join(t.TempDir(), "trailing.json")
	if err := os.WriteFile(trailing, append(data, `{"kind":"fleet"} trailing garbage`...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCmd([]string{"-spec", trailing}, &out); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("run of a spec with data after it = %v, want a trailing data error", err)
	}
	if out.Len() != 0 {
		t.Errorf("run of a spec with data after it printed %q", out.Bytes())
	}

	rack := `"duration":600,"fleet":{"size":4,"seed":1,"recirc":0.03`
	for _, tc := range []struct{ body, want string }{
		{`{"kind":"fleet",` + rack + `,"recirc_tol":0.001}}`, `unknown field "recirc_tol"`},
		{`{"kind":"fleet",` + rack + `,"max_recirc_passes":25}}`, `unknown field "max_recirc_passes"`},
		{`{"kind":"fleetcoord",` + rack + `},"params":{"fan_trim":0.1}}`, `unknown param "fan_trim"`},
		{`{"kind":"fleetcoord",` + rack + `},"params":{"migration_gain":0.5}}`, `unknown param "migration_gain"`},
		{`{"kind":"fleetcoord",` + rack + `},"params":{"power_budget_w":-5}}`, `power_budget_w -5 is negative`},
		{`{"kind":"fleetcoord",` + rack + `},"params":{"power_budget_w":0}}`, `power_budget_w 0 is no budget`},
		{`{"kind":"single","duration":60,"jobs":[{"workload":{"name":"step"},"policy":{"name":"full"}}]}`, `unknown factory "step"`},
		{`{"kind":"fleet",` + rack + `,"recirc_passes":5}}`, `recirc_passes 5 outside [0, 4]`},
		{`{"kind":"single","duration":1e300,"jobs":[{"workload":{"name":"constant"},"policy":{"name":"full"}}]}`, `more ticks than an int holds`},
	} {
		refused := filepath.Join(t.TempDir(), "refused.json")
		if err := os.WriteFile(refused, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runCmd([]string{"-spec", refused}, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run of %s = %v, want an error naming %s", tc.body, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run of %s printed %q", tc.body, out.Bytes())
		}
	}
}

// TestFleetCoordSpecVerdict: on specs/fleetcoord.json, the recirculation
// heavy rack of fleet's TestCoordinatedImprovesRecircHeavyRack
// (NewRack(6, nil, 99), 900 s, recirc 0.03), the coordinated rack has
// no more violations than local control, and its best round is a
// coordinated one.
func TestFleetCoordSpecVerdict(t *testing.T) {
	spec, err := readSpec("../../specs/fleetcoord.json")
	if err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	agg := out.Aggregate
	if coord, local := agg[scenario.MetricViolationFrac], agg[scenario.LocalMetricPrefix+scenario.MetricViolationFrac]; coord > local {
		t.Errorf("coordinated violations %v > local %v", coord, local)
	}
	if best := agg[scenario.MetricCoordBestRound]; best < 1 {
		t.Errorf("best round %v, want a coordinated round (>= 1)", best)
	}
}

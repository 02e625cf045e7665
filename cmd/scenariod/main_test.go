package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/service"
)

// TestRunMatchesSubmit: for every spec file under specs/, `run -spec F`
// prints the bytes `submit -wait -spec F` prints for a fresh in-process
// daemon's first submit of it.
func TestRunMatchesSubmit(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no spec files under specs/")
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
		})
	}
}

// specKeys pins the store key of every file under specs/: a key that
// moved would strand the file's cells in every store that holds them.
var specKeys = map[string]string{
	"ci-smoke.json":       "1fc65e50e369ab290e0c819eed6e227e0d3c49053f56ec1dfd2ca81662afc62b",
	"datacenter.json":     "817547e1cd203e712264f1efd2b8c84d9b5de266bf5197fea0726ecc173ffe9c",
	"fig1.json":           "54c4b2adf7e71e0fb6ddf7f268dc021ebc5b81f1438cfac84c111bf191a616a6",
	"fleet.json":          "994744b3ae6b9b671f0c4e51555411ed770dce6cda57bba8c373830b27cb3822",
	"fleetcoord.json":     "f710f8fb5df7b7fec08974b4f03b3a8a084ea67ad70424b7681411e3bc117357",
	"multicore.json":      "c4f9349665536fff7c0edc4be245bec2fec46bd73eb3ca7acea5df26f707dbd2",
	"multicore-free.json": "f94b751431523a870f9ea1cf12542d0a1f46e565c6d3a5112d2e6743198c81b6",
	"quickstart.json":     "9778d2d3e8155aba4333b24e08951e6aa264771edf152290e8e84f8be03593b4",
}

// TestRunSpecFiles: every file under specs/ keys to its entry in
// specKeys, and specs/fig1.json is the Fig. 1 probe cmd/experiments
// runs. run refuses a spec whose param its workload never reads with the
// error Validate gives, and a file with data after its spec, and prints
// nothing for either.
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
	fig1, err := scenario.Key(experiments.Fig1Spec(experiments.DefaultFig1()))
	if err != nil {
		t.Fatal(err)
	}
	if fig1 != specKeys["fig1.json"] {
		t.Errorf("experiments.Fig1Spec keys to %s, specs/fig1.json to %s", fig1, specKeys["fig1.json"])
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

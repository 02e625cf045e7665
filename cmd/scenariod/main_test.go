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

// TestRunSpecFiles: specs/fig1.json is the Fig. 1 probe cmd/experiments
// runs, under the same store key, and run refuses a spec whose param
// its workload never reads with the error Validate gives.
func TestRunSpecFiles(t *testing.T) {
	fig1, err := readSpec("../../specs/fig1.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Key(fig1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Key(experiments.Fig1Spec(experiments.DefaultFig1()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !strings.HasPrefix(got, "54c4b2ad") {
		t.Errorf("specs/fig1.json key = %s, want %s (54c4b2ad…)", got, want)
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
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/specs"
)

// TestMain runs the command itself when the test binary is started again
// with EXPERIMENTS_RUN_MAIN=1, so the tests drive the real main (flag
// parsing, dispatch and stdout) in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns
// its stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// TestPaperRunsPrint pins the SHA-256 of what each paper subcommand
// prints, and of the figure set the bare command prints: every figure
// and table comes from its file under specs/, reduced by
// internal/experiments, so a change to either that moves a printed
// number fails here.
func TestPaperRunsPrint(t *testing.T) {
	for _, tc := range []struct{ sub, sha string }{
		{"", "7cb6831aa4a7ae3857b26ad6f9541e9e3192b23fc3752634b3a90a9df9884a27"},
		{"fig1", "28b2ae966a673d8f1f4b972519dc351204bb5392d2d1923fb4cf5e4943a83181"},
		{"fig3", "259e8e0de20543272b8bbcb2e9451e2b28e012c63936b5096e425920738f999c"},
		{"fig4", "a5add103ed6724ee4b95eef77b8413af79e4993d4e5249a06fd9614a097bbf3d"},
		{"fig5", "3f5c75e4fa2fa876523a699f83271702b0890f08415db234dc4f650e3ea3d0e6"},
		{"table3", "0e25a4dd35b9f2336ecb78ad98c4ea6e6cebb5970bdcac82403a5a4b5f7227f6"},
		{"table3mc", "8501985296ce3ec0c834e8ac0084281ab56a39d150267dca8d5d206fe0651cf6"},
		{"faults", "aa2b9be31ad5df517c345e6e9ee22ac01efd31bb92e41c86c7d3664b5ee6a5d7"},
	} {
		var args []string
		if tc.sub != "" {
			args = []string{tc.sub}
		}
		out := runMain(t, args...)
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("experiments %s printed bytes hashing to %s, want %s:\n%.600s", tc.sub, got, tc.sha, out)
		}
	}
}

// TestTable3VariantKeys pins the store keys of the specs the Go builds
// from specs/table3.json: the cells of the ambient × seed sweep CI runs
// (found under their keys in the sweep's store), and the 8-seed Monte
// Carlo table `table3mc` runs by default.
func TestTable3VariantKeys(t *testing.T) {
	dir := t.TempDir()
	runMain(t, "sweep", "-ambients", "30,33", "-nseeds", "1", "-duration", "300", "-store", dir)
	for _, cell := range []struct{ ambient, key string }{
		{"30", "e71161d6e85bc74a59e32cd5cfd2ef15de4a6f9fc192027664b9b81da70d7880"},
		{"33", "68bbcbf7feb6a8f5af1c9f5916e18c9d2c04a1673847e82ee91851ecaa933f25"},
	} {
		if _, err := os.Stat(filepath.Join(dir, cell.key+".json")); err != nil {
			t.Errorf("sweep cell at %s °C not stored under key %s: %v", cell.ambient, cell.key, err)
		}
	}
	cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(cells) != 2 {
		t.Errorf("sweep stored %d cells (%v), want 2", len(cells), err)
	}

	table3, err := specs.Load("table3.json")
	if err != nil {
		t.Fatal(err)
	}
	const want = "e68345a36930927cb3607308ef95ffcdaa0df3d887ce2fb316cc1b1cf092af9b"
	if key, err := scenario.Key(experiments.Table3MCSpec(table3, 8)); err != nil || key != want {
		t.Errorf("8-seed table3mc spec keys to %s (%v), want %s", key, err, want)
	}
}

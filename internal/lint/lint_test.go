package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	progOnce sync.Once
	prog     *Program
	progErr  error
)

// loadProgram loads and type-checks the whole module once per test
// binary (the source importer makes the first load a few seconds).
func loadProgram(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		prog, progErr = Load("../..")
	})
	if progErr != nil {
		t.Fatalf("loading module: %v", progErr)
	}
	return prog
}

// TestTreeClean is `make lint` as a test: the full analyzer suite over
// the real tree must be silent. Reverting any of this PR's tree fixes
// (the json tags on sim.Config / sensor.Config / thermal.HeatSinkLaw /
// sim.WarmPoint) makes this fail.
func TestTreeClean(t *testing.T) {
	p := loadProgram(t)
	diags := RunAll(p, All())
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", p.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		t.Fatalf("%d finding(s) in the tree — run `make lint` for the list", len(diags))
	}
}

// TestLoaderCoverage sanity-checks that the loader saw the packages the
// analyzers guard (a silently-skipped package would make TestTreeClean
// vacuous). testonly counts references from every loaded package, so the
// callers outside internal/ must load too: were the nested bench/ module
// skipped, testonly would report code only the benchmark calls.
func TestLoaderCoverage(t *testing.T) {
	p := loadProgram(t)
	got := map[string]bool{}
	for _, pkg := range p.Packages {
		got[pkg.Path] = true
	}
	for _, want := range []string{
		"repro/internal/sim",
		"repro/internal/thermal",
		"repro/internal/sensor",
		"repro/internal/scenario",
		"repro/internal/fleet",
		"repro/internal/multicore",
		"repro/internal/lint",
		"repro/internal/service",
		"repro/cmd/experiments",
		"repro/cmd/fantune",
		"repro/cmd/repolint",
		"repro/cmd/scenariod",
		"repro/specs",
		"repro/bench",
	} {
		if !got[want] {
			t.Errorf("loader missed package %s", want)
		}
	}
	if len(got) < 25 {
		t.Errorf("loader found only %d packages, expected the whole module", len(got))
	}
}

// TestDetSourceScoping pins the determinism boundary. The
// deterministic-package list is part of the repo's contract — adding a
// package there is a deliberate decision, and silently dropping one
// would make detsource vacuous — so the exact set is asserted here.
// internal/service sits outside the list on purpose (a daemon
// legitimately reads the wall clock): the loader must still see it, it
// must actually use the wall clock in non-test code (otherwise the
// exemption is untested decoration), and detsource must stay silent on
// it while the rest of the suite still applies.
func TestDetSourceScoping(t *testing.T) {
	wantDet := []string{
		"control", "coord", "core", "fleet", "multicore",
		"scenario", "sensor", "sim", "stats", "thermal", "workload",
	}
	got := make([]string, 0, len(deterministicPkgs))
	for name := range deterministicPkgs {
		got = append(got, name)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(wantDet) {
		t.Errorf("deterministic-package list drifted:\n got %v\nwant %v", got, wantDet)
	}
	if deterministicPkgs["service"] {
		t.Error("internal/service must stay exempt from detsource (it is a daemon, not a simulation layer)")
	}

	p := loadProgram(t)
	var svc *Package
	for _, pkg := range p.Packages {
		if pkg.Path == "repro/internal/service" {
			svc = pkg
		}
	}
	if svc == nil {
		t.Fatal("loader missed repro/internal/service — the exemption test is vacuous")
	}

	// The package genuinely uses the wall clock outside tests; if this
	// ever stops being true the exemption should be reconsidered.
	if !usesWallClock(svc) {
		t.Error("internal/service no longer reads the wall clock in non-test code; revisit its detsource exemption")
	}
	if diags := RunPackage(svc, []*Analyzer{DetSource}); len(diags) != 0 {
		t.Errorf("detsource flagged the exempt service package: %v", diags)
	}

	// The exemption is narrow: the rest of the suite still analyzes the
	// package (silence here means "analyzed and clean", and TestTreeClean
	// would catch regressions — this asserts the analyzers do run).
	if diags := RunPackage(svc, All()); len(diags) != 0 {
		t.Errorf("service package has non-detsource findings: %v", diags)
	}
}

// usesWallClock reports whether a package's non-test code calls
// time.Now (the same resolution logic detsource uses).
func usesWallClock(pkg *Package) bool {
	found := false
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ident, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[ident].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = true
			}
			return true
		})
	}
	return found
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// TestAnalyzersOnTestdata drives every analyzer over its testdata
// packages and matches the findings against `// want "substring"`
// annotations: every want must be hit, every finding must be wanted, and
// suppressed or compliant code must stay silent.
func TestAnalyzersOnTestdata(t *testing.T) {
	p := loadProgram(t)
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "lint" {
			continue
		}
		a, ok := byName[e.Name()]
		if !ok {
			t.Errorf("testdata/%s does not name an analyzer", e.Name())
			continue
		}
		for _, dir := range leafPackageDirs(t, filepath.Join("testdata", e.Name())) {
			t.Run(filepath.ToSlash(dir), func(t *testing.T) {
				pkg, err := p.LoadDir(dir)
				if err != nil {
					t.Fatalf("loading %s: %v", dir, err)
				}
				checkWants(t, pkg, RunPackage(pkg, []*Analyzer{a}))
			})
		}
	}
}

// TestSuppressionNeedsReason covers the malformed-marker path: a bare
// //lint:ignore without a reason does not suppress and is itself a
// finding.
func TestSuppressionNeedsReason(t *testing.T) {
	p := loadProgram(t)
	pkg, err := p.LoadDir(filepath.Join("testdata", "lint", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pkg, []*Analyzer{MapOrder})
	var kinds []string
	for _, d := range diags {
		kinds = append(kinds, d.Analyzer)
	}
	sort.Strings(kinds)
	if fmt.Sprint(kinds) != "[lint maporder]" {
		t.Fatalf("want one malformed-suppression finding and one unsuppressed maporder finding, got %v: %v", kinds, diags)
	}
	if !strings.Contains(diags[0].Message+diags[1].Message, "without a reason") {
		t.Errorf("missing malformed-suppression message in %v", diags)
	}
}

// leafPackageDirs returns the directories under root that directly
// contain .go files.
func leafPackageDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// checkWants compares findings against the package's want annotations
// line by line.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[string][]string{} // file:line -> expected substrings
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	got := map[string][]string{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		got[key] = append(got[key], fmt.Sprintf("[%s] %s", d.Analyzer, d.Message))
	}
	keys := map[string]bool{}
	for k := range wants {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		w, g := wants[k], got[k]
		if len(w) != len(g) {
			t.Errorf("%s: want %d finding(s) %v, got %d: %v", k, len(w), w, len(g), g)
			continue
		}
		used := make([]bool, len(g))
		for _, sub := range w {
			matched := false
			for i, msg := range g {
				if !used[i] && strings.Contains(msg, sub) {
					used[i] = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: no finding matches want %q (got %v)", k, sub, g)
			}
		}
	}
}

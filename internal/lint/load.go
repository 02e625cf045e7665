// Package lint is the repository's custom static-analysis suite: a
// stdlib-only loader (go/parser + go/types, no module dependencies, so it
// works offline) plus the repo-specific analyzers that machine-check the
// contracts every layer leans on — deterministic packages take time and
// randomness explicitly (detsource), map iteration never shapes output or
// hashes (maporder), workload factories never read cfg.Ambient
// (ambientread), scratch-aliased tick results never outlive their tick
// (scratchalias), every field reachable from the scenario store hash
// carries a deliberate JSON tag (hashedfield), and every declaration
// under internal/ has a caller outside the tests (testonly).
//
// The driver is cmd/repolint; `make lint` runs it over the module and
// exits non-zero on any finding. False positives are suppressed in place
// with a justified marker comment:
//
//	//lint:ignore <analyzer> <reason>
//
// which silences that analyzer on the same line and the line below it.
// A marker without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module (or a standalone
// testdata package loaded via LoadDir).
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Name is the package clause name.
	Name string
	// Dir is the package's directory on disk.
	Dir string
	// Module is the module path the package belongs to (the prefix
	// analyzers use to tell first-party types from stdlib ones).
	Module string
	// Fset is the program-wide file set (positions are comparable across
	// packages).
	Fset *token.FileSet
	// Files are the parsed, build-tag-filtered source files.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// Prog is the program the package was checked against (whole-program
	// analyzers such as testonly reach the other packages through it).
	Prog *Program
}

// IsTestFile reports whether the position's file is a _test.go file.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Program is a loaded, type-checked module tree.
type Program struct {
	// ModulePath is the module path from go.mod.
	ModulePath string
	// Root is the module root directory.
	Root string
	// Fset is the shared file set.
	Fset *token.FileSet
	// Packages are the module's packages in dependency order. In-package
	// test files are type-checked together with their package; external
	// _test packages appear as separate entries (path suffixed "_test").
	Packages []*Package

	byPath map[string]*Package
	src    types.ImporterFrom
	ctx    build.Context

	usesOnce sync.Once
	uses     *useIndex
}

// moduleRe extracts the module path from go.mod.
var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// Load parses and type-checks every package under the module rooted at
// root (the directory containing go.mod). Directories named testdata,
// vendor, or starting with "." or "_" are skipped. Build constraints are
// honored under the default build context, so mutually exclusive files
// (race_on/race_off) do not collide.
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	m := moduleRe.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	prog := &Program{
		ModulePath: string(m[1]),
		Root:       root,
		Fset:       token.NewFileSet(),
		byPath:     map[string]*Package{},
		ctx:        build.Default,
	}
	prog.src = importer.ForCompiler(prog.Fset, "source", nil).(types.ImporterFrom)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	// Parse every package directory into raw units (one per package
	// clause: the base package absorbs its in-package test files, an
	// external foo_test package becomes its own unit).
	type unit struct {
		path, name, dir string
		external        bool
		files           []*ast.File
		imports         map[string]bool // module-internal import paths
	}
	var units []*unit
	byUnitPath := map[string]*unit{}
	for _, dir := range dirs {
		groups, err := prog.parseDir(dir)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			rel, _ := filepath.Rel(root, dir)
			path := prog.ModulePath
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			u := &unit{path: path, name: g.name, dir: dir, external: g.external, files: g.files, imports: map[string]bool{}}
			if g.external {
				// External test package: distinct unit that depends on
				// everything it imports (including its base package).
				u.path += "_test"
			}
			for _, f := range g.files {
				for _, imp := range f.Imports {
					ip := strings.Trim(imp.Path.Value, `"`)
					if ip == prog.ModulePath || strings.HasPrefix(ip, prog.ModulePath+"/") {
						u.imports[ip] = true
					}
				}
			}
			units = append(units, u)
			byUnitPath[u.path] = u
		}
	}

	// Topological order over module-internal imports.
	const (
		white = iota
		gray
		black
	)
	state := map[*unit]int{}
	var order []*unit
	var visit func(u *unit) error
	visit = func(u *unit) error {
		switch state[u] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", u.path)
		}
		state[u] = gray
		deps := make([]string, 0, len(u.imports))
		for ip := range u.imports {
			deps = append(deps, ip)
		}
		sort.Strings(deps)
		for _, ip := range deps {
			if dep, ok := byUnitPath[ip]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[u] = black
		order = append(order, u)
		return nil
	}
	for _, u := range units {
		if err := visit(u); err != nil {
			return nil, err
		}
	}

	var errs []string
	for _, u := range order {
		pkg, err := prog.check(u.path, u.dir, u.files)
		if err != nil {
			errs = append(errs, err.Error())
		}
		prog.byPath[u.path] = pkg
		prog.Packages = append(prog.Packages, pkg)
	}
	if len(errs) > 0 {
		return prog, fmt.Errorf("lint: type errors:\n%s", strings.Join(errs, "\n"))
	}
	return prog, nil
}

// parsedGroup is one package clause's worth of files in a directory.
type parsedGroup struct {
	name     string
	external bool // foo_test package
	files    []*ast.File
}

// parseDir parses the build-matched .go files of dir, grouped by package
// clause. In-package test files land in the same group as the package.
func (prog *Program) parseDir(dir string) ([]*parsedGroup, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	groups := map[string]*parsedGroup{}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		match, err := prog.ctx.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: %s/%s: %w", dir, e.Name(), err)
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		name := f.Name.Name
		g, ok := groups[name]
		if !ok {
			g = &parsedGroup{name: name, external: strings.HasSuffix(name, "_test")}
			groups[name] = g
			names = append(names, name)
		}
		g.files = append(g.files, f)
	}
	sort.Strings(names)
	out := make([]*parsedGroup, 0, len(names))
	for _, n := range names {
		out = append(out, groups[n])
	}
	return out, nil
}

// check type-checks one package's files.
func (prog *Program) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []string
	conf := types.Config{
		Importer:    prog,
		FakeImportC: true,
		Error: func(err error) {
			errs = append(errs, err.Error())
		},
	}
	name := "?"
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	tpkg, _ := conf.Check(path, prog.Fset, files, info)
	pkg := &Package{
		Path:   path,
		Name:   name,
		Dir:    dir,
		Module: prog.ModulePath,
		Fset:   prog.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		Prog:   prog,
	}
	if len(errs) > 0 {
		return pkg, fmt.Errorf("%s:\n\t%s", path, strings.Join(errs, "\n\t"))
	}
	return pkg, nil
}

// Import implements types.Importer.
func (prog *Program) Import(path string) (*types.Package, error) {
	return prog.ImportFrom(path, prog.Root, 0)
}

// ImportFrom resolves module-internal imports from the loaded tree and
// everything else (the standard library) through the source importer.
func (prog *Program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == prog.ModulePath || strings.HasPrefix(path, prog.ModulePath+"/") {
		if p, ok := prog.byPath[path]; ok && p.Types != nil {
			return p.Types, nil
		}
		return nil, fmt.Errorf("lint: module package %s not loaded (load order bug?)", path)
	}
	return prog.src.ImportFrom(path, dir, mode)
}

// LoadDir parses and type-checks one standalone directory (an analyzer
// testdata package) against the already-loaded program: its repro/...
// imports resolve to the module's packages. The synthesized import path
// is the module-relative path of dir, so analyzers keyed on path suffixes
// (detsource's deterministic-package set, hashedfield's scenario root)
// see testdata packages exactly as they would see the real ones.
//
//lint:ignore testonly analyzer test harness for TestAnalyzersOnTestdata
func (prog *Program) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	groups, err := prog.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(groups) != 1 {
		return nil, fmt.Errorf("lint: %s holds %d packages, want exactly 1", dir, len(groups))
	}
	rel, err := filepath.Rel(prog.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, prog.Root)
	}
	path := prog.ModulePath + "/" + filepath.ToSlash(rel)
	return prog.check(path, dir, groups[0].files)
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding (resolve through the program's Fset).
	Pos token.Pos
	// Analyzer is the reporting analyzer's name (the suppression key).
	Analyzer string
	// Message states the violated contract.
	Message string
}

// Analyzer is one repo-specific check.
type Analyzer struct {
	// Name keys the analyzer in findings and //lint:ignore markers.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports the package's findings. Output order does not matter;
	// the driver sorts by position.
	Run func(p *Package) []Diagnostic
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		DetSource,
		MapOrder,
		AmbientRead,
		ScratchAlias,
		HashedField,
		TestOnly,
	}
}

// ignoreRe matches a suppression marker: //lint:ignore <analyzer> <reason>.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// suppressions maps file:line to the analyzer names silenced there. The
// special name "*" silences every analyzer. A marker covers its own line
// and the line immediately below, so it works both trailing the flagged
// statement and on the line above it.
type suppressions map[string]map[string]bool

// collectSuppressions scans a package's comments for markers. Markers
// missing the mandatory reason are returned as diagnostics — an
// unjustified suppression is itself a finding.
func collectSuppressions(p *Package) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lint",
						Message:  fmt.Sprintf("suppression of %q without a reason — write //lint:ignore %s <why this is a false positive>", m[1], m[1]),
					})
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					if sup[key] == nil {
						sup[key] = map[string]bool{}
					}
					sup[key][m[1]] = true
				}
			}
		}
	}
	return sup, diags
}

// suppressed reports whether the diagnostic is silenced by a marker.
func (s suppressions) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	names := s[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	return names != nil && (names[d.Analyzer] || names["*"])
}

// RunPackage runs the analyzers over one package and returns the
// unsuppressed findings.
func RunPackage(p *Package, analyzers []*Analyzer) []Diagnostic {
	sup, diags := collectSuppressions(p)
	for _, a := range analyzers {
		for _, d := range a.Run(p) {
			if !sup.suppressed(p.Fset, d) {
				diags = append(diags, d)
			}
		}
	}
	SortDiagnostics(p.Fset, diags)
	return diags
}

// RunAll runs the analyzers over every package of the program. Findings
// are position-sorted and deduplicated (an analyzer reaching across
// packages, like hashedfield, may surface the same field twice).
func RunAll(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, p := range prog.Packages {
		all = append(all, RunPackage(p, analyzers)...)
	}
	SortDiagnostics(prog.Fset, all)
	seen := map[string]bool{}
	out := all[:0]
	for _, d := range all {
		key := fmt.Sprintf("%s|%s|%s", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	return out
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// lastElem returns the final element of an import path.
func lastElem(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcBodies yields every function body in the file paired with its
// enclosing body list for statement-ordering checks: FuncDecl bodies and
// FuncLit bodies each exactly once.
func funcBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

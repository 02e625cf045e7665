package lint

import (
	"go/ast"
	"go/types"
)

// AmbientRead enforces the PR 3 workload-factory contract, documented on
// fleet.WorkloadFactory and scenario.WorkloadFactory: demand is exogenous
// to the machine room, and the fleet layer invokes each factory exactly
// once per Run (at the node's position inlet) before reusing the compiled
// demand schedule across every recirculation relaxation pass and
// coordinator round. A factory that reads cfg.Ambient would silently bake
// the first pass's inlet into all later passes — the exact class of bug
// the warm-lockstep equivalence tests exist to catch, found here at
// compile time instead.
//
// The check is structural, so it covers named constructors, the scenario
// vocabulary's factories and inline closures alike: any function that takes a
// sim.Config and returns a workload.Generator must not read (or write)
// the config's Ambient field anywhere in its body, including generator
// closures it returns.
var AmbientRead = &Analyzer{
	Name: "ambientread",
	Doc:  "workload factories must not read cfg.Ambient (demand is exogenous)",
	Run:  ambientReadRun,
}

func ambientReadRun(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var ftype types.Type
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				body = n.Body
				if obj := p.Info.Defs[n.Name]; obj != nil {
					ftype = obj.Type()
				}
			case *ast.FuncLit:
				body = n.Body
				ftype = p.Info.TypeOf(n)
			default:
				return true
			}
			sig, ok := ftype.(*types.Signature)
			if !ok || !isWorkloadFactorySig(sig) {
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := p.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal || sel.Sel.Name != "Ambient" {
					return true
				}
				if !isNamed(s.Recv(), "sim", "Config") {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:      sel.Sel.Pos(),
					Analyzer: "ambientread",
					Message: "workload factory reads cfg.Ambient: generators are compiled once per fleet Run " +
						"and reused across relaxation passes, so demand must not depend on the inlet temperature " +
						"(see the fleet.WorkloadFactory contract)",
				})
				return true
			})
			// Nested literals inside this factory were already scanned by
			// the inner inspect; do not double-report them when the outer
			// walk reaches them (they rarely re-match the signature, but a
			// generator-returning helper closure can).
			return false
		})
	}
	return diags
}

// isWorkloadFactorySig reports whether the signature takes a sim.Config
// (first parameter, by value or pointer) and returns a workload.Generator
// among its results — the structural shape of every workload constructor
// in the repo (fleet.WorkloadFactory, scenario.WorkloadFactory, and the
// named helpers behind them).
func isWorkloadFactorySig(sig *types.Signature) bool {
	if sig.Params().Len() == 0 {
		return false
	}
	if !isNamed(sig.Params().At(0).Type(), "sim", "Config") {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isNamed(sig.Results().At(i).Type(), "workload", "Generator") {
			return true
		}
	}
	return false
}

// isNamed reports whether t (after pointer indirection) is the named type
// pkgLastElem.name. Matching on the import path's final element keeps the
// predicate true for the real packages and for analyzer testdata twins
// alike.
func isNamed(t types.Type, pkgLastElem, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Name() == name && lastElem(obj.Pkg().Path()) == pkgLastElem
}

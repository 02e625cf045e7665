package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly enforces "code whose only callers are its own tests goes": a
// package-level func, type, var, const or method in a non-test file under
// internal/ that no non-test file of the loaded program references is a
// finding. References count from every type-checked package, cmd/ and
// the nested bench/ module included. A declaration's mentions of itself
// do not count, nor do a type's mentions in its own methods' receivers;
// a use of a generic instantiation counts against its origin. A method
// is exempt when its receiver type or pointer implements an interface
// with a method of that name that appears anywhere in the program's
// types, or when fmt, errors or encoding/json call it by name.
// Struct fields are out of scope: encoding/json reads them by reflection.
//
// The analyzer does not iterate to a fixpoint: deleting a finding may
// expose the declarations only it referenced, so rerun until clean.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "declarations under internal/ must be referenced by non-test code",
	Run:  testOnlyRun,
}

// reflectiveMethods are called through interfaces the program need not
// name (fmt.Stringer, fmt.Formatter, json.Marshaler, errors' Unwrap).
var reflectiveMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"GoString": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// useIndex is what testonly needs from a set of packages: the objects
// their non-test files reference, and every interface their types
// mention, keyed by method name.
type useIndex struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// useIndex builds the program-wide index once.
func (prog *Program) useIndex() *useIndex {
	prog.usesOnce.Do(func() { prog.uses = buildUseIndex(prog.Packages) })
	return prog.uses
}

func buildUseIndex(pkgs []*Package) *useIndex {
	idx := &useIndex{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			walk(t.Elem())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				m := t.Method(i)
				idx.ifaces[m.Name()] = append(idx.ifaces[m.Name()], t)
				walk(m.Type())
			}
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			walk(tv.Type)
		}
		for _, f := range p.Files {
			if p.IsTestFile(f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				markUses(idx.used, p, d)
			}
		}
	}
	return idx
}

// markUses records the objects decl references, minus its mentions of
// what it declares and the receiver of a method.
func markUses(used map[types.Object]bool, p *Package, decl ast.Decl) {
	mark := func(n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil && !self[origin(obj)] {
					used[origin(obj)] = true
				}
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := map[types.Object]bool{p.Info.Defs[d.Name]: true}
		mark(d.Type, self)
		if d.Body != nil {
			mark(d.Body, self)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			self := map[types.Object]bool{}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[p.Info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[p.Info.Defs[n]] = true
				}
			}
			mark(spec, self)
		}
	}
}

// origin maps an instantiated generic function or field to its origin.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func testOnlyRun(p *Package) []Diagnostic {
	if !strings.HasPrefix(p.Path, p.Module+"/internal/") {
		return nil
	}
	indexes := []*useIndex{p.Prog.useIndex()}
	if p.Prog.byPath[p.Path] != p {
		// A standalone package (LoadDir) is not in the program's index.
		indexes = append(indexes, buildUseIndex([]*Package{p}))
	}
	var diags []Diagnostic
	report := func(id *ast.Ident, name string) {
		obj := p.Info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		for _, idx := range indexes {
			if idx.used[obj] {
				return
			}
		}
		diags = append(diags, Diagnostic{
			Pos:      id.Pos(),
			Analyzer: "testonly",
			Message:  fmt.Sprintf("%s.%s has no reference outside tests: delete it with its tests, or mark a deliberate test reference with a testonly suppression naming the test it serves", lastElem(p.Path), name),
		})
	}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := p.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				name := fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					base := recv.Type()
					if ptr, ok := base.(*types.Pointer); ok {
						base = ptr.Elem()
					}
					named, _ := base.(*types.Named)
					if named == nil || reflectiveMethods[name] || implementsNamed(named, name, indexes) {
						continue
					}
					name = named.Obj().Name() + "." + name
				} else if name == "init" {
					continue
				}
				report(d.Name, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							report(n, n.Name)
						}
					}
				}
			}
		}
	}
	return diags
}

// implementsNamed reports whether t or *t implements an indexed interface
// that has a method called name.
func implementsNamed(t *types.Named, name string, indexes []*useIndex) bool {
	for _, idx := range indexes {
		for _, iface := range idx.ifaces[name] {
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}

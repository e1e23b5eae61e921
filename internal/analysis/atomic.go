package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Helpers shared by the analyzers: classifying sync/atomic usage and
// resolving selector expressions to struct-field objects.

// atomicMethodNames are the operations of the sync/atomic wrapper types
// (atomic.Int64, atomic.Uint32, atomic.Bool, atomic.Pointer[T], ...).
var atomicMethodNames = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// isAtomicType reports whether t (after pointer indirection) is a named
// type declared in sync/atomic.
func isAtomicType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// fieldOf resolves expr to the struct-field object it selects, or nil.
// It sees through parentheses; the returned *types.Var has IsField true.
func fieldOf(info *types.Info, expr ast.Expr) *types.Var {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	// Qualified references (pkg.Var) and method selections fall out here.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// atomicFnTarget returns the operand expression of a sync/atomic package
// function call (the `&x` of atomic.AddInt64(&x, 1)), or nil if call is
// not one. The operand is returned with the leading & stripped.
func atomicFnTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return nil
	}
	arg := ast.Unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return ast.Unparen(u.X)
	}
	return arg
}

// atomicMethodTarget returns the receiver expression of a method call on
// a sync/atomic wrapper type (the `x.f` of x.f.Load()), or nil.
func atomicMethodTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !atomicMethodNames[sel.Sel.Name] {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	if !isAtomicType(s.Recv()) {
		return nil
	}
	return ast.Unparen(sel.X)
}

// rawAtomicFields computes, once per module, the set of struct fields of
// non-atomic (raw word) type that are passed to sync/atomic functions
// anywhere in the module, mapped to the positions of those sanctioned
// atomic accesses. These are the fields whose every other access the
// atomicmix analyzer polices.
func (m *Module) rawAtomicFields() map[*types.Var][]token.Position {
	if m.atomicOnce {
		return m.atomicFlds
	}
	m.atomicOnce = true
	m.atomicFlds = make(map[*types.Var][]token.Position)
	for _, p := range m.Packages {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				target := atomicFnTarget(p.Info, call)
				if target == nil {
					return true
				}
				if fld := fieldOf(p.Info, target); fld != nil && !isAtomicType(fld.Type()) {
					m.atomicFlds[fld] = append(m.atomicFlds[fld], m.position(target.Pos()))
				}
				return true
			})
		}
	}
	return m.atomicFlds
}

// fieldOwnerName names the struct type that declares field fld, best
// effort, for diagnostics ("gate.state").
func fieldOwnerName(m *Module, fld *types.Var) string {
	p := m.pkgOf(fld.Pkg())
	if p == nil {
		return fld.Name()
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fd := range st.Fields.List {
					for _, name := range fd.Names {
						if p.Info.Defs[name] == fld {
							return ts.Name.Name + "." + fld.Name()
						}
					}
				}
			}
		}
	}
	return fld.Name()
}

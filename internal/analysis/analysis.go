// Package analysis implements nowa-vet: a vet-style static-analysis
// suite for the concurrency and hot-path invariants the Go compiler
// cannot see. The runtime's correctness argument leans on discipline —
// every cross-strand word goes through sync/atomic in a prescribed
// pattern, the spawn ladder allocates nothing, per-worker structs are
// padded against false sharing, and the Eq. 5 join protocol is touched
// only by the packages that own it. Each analyzer turns one such
// discipline into a build-time gate, with an explicit annotation grammar
// for the documented exceptions (see annotations.go).
//
// The suite is built on the standard library only (go/ast, go/parser,
// go/types, `go list -json` for package discovery): the module has zero
// external dependencies and must keep building without network access,
// so golang.org/x/tools is deliberately not used.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Filenames  []string
	Pkg        *types.Package
	Info       *types.Info
	Notes      *Notes
}

// Module is the unit every analyzer runs over: all packages of one
// module (or of one test corpus), type-checked in one shared universe so
// types.Object identities are comparable across packages.
type Module struct {
	Path     string // module path ("nowa"); corpus loads use the corpus root
	Base     string // filesystem root findings are reported relative to
	Fset     *token.FileSet
	Packages []*Package // in dependency (topological) order
	ByPath   map[string]*Package

	atomicOnce bool
	atomicFlds map[*types.Var][]token.Position // raw fields with atomic accesses (see atomic.go)

	funcs  []*funcNode               // declared functions with bodies, in declaration order (see index)
	byFunc map[*types.Func]*funcNode // the same, by generic-origin object
}

// An Analyzer checks one invariant over a whole module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Module) []Finding
}

// All is the nowa-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Atomicmix(), Hotpath(), Padguard(), Joinenc(), Lockorder(), Fsm()}
}

// RunAll applies every analyzer — plus the annotation grammar checks
// collected at load time — and returns the findings sorted by position
// for stable output.
func RunAll(m *Module, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		out = append(out, a.Run(m)...)
	}
	for _, p := range m.Packages {
		out = append(out, p.Notes.Bad...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// position converts a node position to a token.Position with the
// filename relative to the module root, for compact stable output.
func (m *Module) position(pos token.Pos) token.Position {
	p := m.Fset.Position(pos)
	if m.Base != "" {
		if rel, err := filepath.Rel(m.Base, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p
}

// pkgOf returns the Package whose types.Package is p, if loaded.
func (m *Module) pkgOf(p *types.Package) *Package {
	if p == nil {
		return nil
	}
	return m.ByPath[p.Path()]
}

// funcNode is one declared function with its owning package.
type funcNode struct {
	fn   *types.Func // generic origin
	pkg  *Package
	decl *ast.FuncDecl
}

// index lists every function and method declaration with a body in the
// module, in declaration order, and maps each by its (generic-origin)
// object. Built once per module; every call-graph analyzer shares it.
func (m *Module) index() ([]*funcNode, map[*types.Func]*funcNode) {
	if m.byFunc == nil {
		m.byFunc = make(map[*types.Func]*funcNode)
		for _, p := range m.Packages {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						n := &funcNode{fn: fn.Origin(), pkg: p, decl: fd}
						m.funcs = append(m.funcs, n)
						m.byFunc[n.fn] = n
					}
				}
			}
		}
	}
	return m.funcs, m.byFunc
}

// reach walks the static call graph breadth first from roots, entering
// a declared function only when follow admits it (roots included), and
// maps every function entered to the first root that reached it. Calls
// that leave the module or go through an interface or a function value
// end the walk at that call.
func (m *Module) reach(roots []*funcNode, follow func(*funcNode) bool) map[*funcNode]*funcNode {
	_, byFunc := m.index()
	from := make(map[*funcNode]*funcNode)
	var queue []*funcNode
	for _, r := range roots {
		if _, seen := from[r]; !seen && follow(r) {
			from[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(n.pkg.Info, call); callee != nil {
				c := byFunc[callee.Origin()]
				if _, seen := from[c]; c != nil && !seen && follow(c) {
					from[c] = from[n]
					queue = append(queue, c)
				}
			}
			return true
		})
	}
	return from
}

// staticCallee resolves a call to the *types.Func it statically invokes:
// package functions, qualified functions, and methods called on concrete
// receivers. Interface method calls and calls of function values return
// nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](...) and m[T1, T2](...)
	// still name their callee statically.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func funcDisplayName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return decl.Name.Name
	}
	t := decl.Recv.List[0].Type
	return "(" + types.ExprString(t) + ")." + decl.Name.Name
}

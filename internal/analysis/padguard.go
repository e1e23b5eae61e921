package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Padguard enforces the false-sharing discipline on the scheduler's hot
// structs: every struct containing atomic fields — directly, embedded,
// or as an array of atomic cells — in internal/sched, internal/deque,
// internal/trace (the per-worker counter cells), internal/ring (the
// ticketed ring's two tickets) and the root package must carry the 128-byte
// padding pattern (a blank `_` array field separating or trailing the
// contended words — 128 bytes covers adjacent-cache-line prefetching)
// AND a compile-time guard that
// keeps the arithmetic honest: a constant expression applying
// unsafe.Sizeof (size guards, as on chaos.Streams and sched's slot) or
// unsafe.Offsetof (line-group guards, as on sched's slot and the deque
// headers) to the type. The guard is what turns a silently decayed pad
// into a build break when fields are added or removed.
//
// Structs that are singletons or only ever individually heap-allocated
// have no adjacent instances to false-share with; they are exempted at
// the declaration with //nowa:nopad <reason>.
func Padguard() *Analyzer {
	return &Analyzer{
		Name: "padguard",
		Doc:  "require 128-byte padding and a compile-time size/offset guard on atomic-bearing structs in internal/sched, internal/deque, internal/trace, internal/ring and the root package",
		Run:  runPadguard,
	}
}

// padguardScope lists the import-path suffixes the analyzer applies to
// ("nowa" is the module's root package).
var padguardScope = []string{"internal/sched", "internal/deque", "internal/trace", "internal/ring", "nowa"}

func inPadguardScope(importPath string) bool {
	for _, s := range padguardScope {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

func runPadguard(m *Module) []Finding {
	rawFields := m.rawAtomicFields()
	var out []Finding
	for _, p := range m.Packages {
		if !inPadguardScope(p.ImportPath) {
			continue
		}
		guarded := guardedTypes(p)
		for _, file := range p.Files {
			for _, d := range file.Decls {
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
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if p.Notes.declNote(m, doc, ts.Pos(), "nopad") {
						continue
					}
					obj := p.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					atomicField := firstAtomicField(obj.Type(), rawFields)
					if atomicField == "" {
						continue
					}
					pos := m.position(ts.Pos())
					if !hasPadField(st) {
						out = append(out, Finding{
							Analyzer: "padguard",
							Pos:      pos,
							Message: fmt.Sprintf(
								"struct %s has atomic field %s but no 128-byte padding field; pad it (blank `_ [...]byte` / `_ [...]int64` field) or annotate the declaration //nowa:nopad <reason>",
								ts.Name.Name, atomicField),
						})
					}
					if !guarded[originNamed(obj.Type())] {
						out = append(out, Finding{
							Analyzer: "padguard",
							Pos:      pos,
							Message: fmt.Sprintf(
								"struct %s has atomic field %s but no compile-time guard; add a const using unsafe.Sizeof or unsafe.Offsetof on %s (or annotate //nowa:nopad <reason>)",
								ts.Name.Name, atomicField, ts.Name.Name),
						})
					}
				}
			}
		}
	}
	return out
}

// firstAtomicField names the first field of struct type t — named or
// embedded — that is of a sync/atomic wrapper type, an array of such
// cells (a per-worker counter block), or a raw word accessed via
// sync/atomic functions somewhere in the module; empty if none.
func firstAtomicField(t types.Type, raw map[*types.Var][]token.Position) string {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, isRaw := raw[f]; isRaw || holdsAtomic(f.Type()) {
			return f.Name()
		}
	}
	return ""
}

// holdsAtomic reports whether t is a sync/atomic wrapper type or an
// array (possibly behind a named type) of them.
func holdsAtomic(t types.Type) bool {
	if a, ok := t.Underlying().(*types.Array); ok {
		return holdsAtomic(a.Elem())
	}
	return isAtomicType(t)
}

// hasPadField reports whether st contains a blank array field — the
// padding convention.
func hasPadField(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.Name != "_" {
				continue
			}
			if _, ok := f.Type.(*ast.ArrayType); ok {
				return true
			}
		}
	}
	return false
}

// guardedTypes collects the named struct types that some unsafe.Sizeof
// or unsafe.Offsetof expression in the package applies to.
func guardedTypes(p *Package) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "unsafe" {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			switch sel.Sel.Name {
			case "Sizeof":
				if tv, ok := p.Info.Types[arg]; ok {
					if n := originNamed(tv.Type); n != nil {
						out[n] = true
					}
				}
			case "Offsetof":
				if fsel, ok := arg.(*ast.SelectorExpr); ok {
					if tv, ok := p.Info.Types[fsel.X]; ok {
						if n := originNamed(tv.Type); n != nil {
							out[n] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// originNamed unwraps pointers and generic instantiation down to the
// declared named type, or nil.
func originNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

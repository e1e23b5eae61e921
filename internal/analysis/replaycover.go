package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Replaycover keeps the schedule-trace vocabulary honest. The replay
// package declares the event vocabulary as constants of a named type
// Kind, and recording happens through the Recorder's Record/
// RecordExternal methods. A Kind no record site ever emits is dead
// vocabulary, or a recording path that quietly lost its event; this
// analyzer flags each.
//
// Emission sites are Record/RecordExternal calls passing the Kind
// constant directly, plus any module function whose result list includes
// the Kind type (outcome-classification helpers like stealOutcomeKind
// return the kind they emit); every Kind constant referenced in such a
// function counts as emitted. The zero Kind (KNone) is the absent-event
// sentinel and exempt, as is a blank (_) holding a retired kind's
// number.
func Replaycover() *Analyzer {
	return &Analyzer{
		Name: "replaycover",
		Doc:  "require every replay.Kind to be emitted by some record site",
		Run:  runReplaycover,
	}
}

func runReplaycover(m *Module) []Finding {
	var out []Finding
	for _, p := range m.Packages {
		if p.Pkg.Name() != "replay" {
			continue
		}
		tn, ok := p.Pkg.Scope().Lookup("Kind").(*types.TypeName)
		if !ok {
			continue
		}
		out = append(out, checkReplayPkg(m, p, tn.Type())...)
	}
	return out
}

func checkReplayPkg(m *Module, rp *Package, kindType types.Type) []Finding {
	// Collect the vocabulary: Kind-typed constants of the replay package.
	// The zero value is the absent-event sentinel and exempt from
	// coverage; so is a blank, which holds a retired kind's number and
	// which no code can name.
	var kinds []*types.Const
	emitted := make(map[*types.Const]bool)
	for _, f := range rp.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, nm := range vs.Names {
					c, ok := rp.Info.Defs[nm].(*types.Const)
					if nm.Name == "_" || !ok || !types.Identical(c.Type(), kindType) {
						continue
					}
					if v, exact := kindZero(c); exact && v {
						continue
					}
					kinds = append(kinds, c)
					emitted[c] = false
				}
			}
		}
	}
	mark := func(obj types.Object) {
		if c, ok := obj.(*types.Const); ok {
			if _, isKind := emitted[c]; isKind {
				emitted[c] = true
			}
		}
	}

	// Emission rule 1: a Kind constant passed directly to a
	// Record/RecordExternal method of the replay package.
	// Emission rule 2: any Kind constant referenced in a module function
	// whose results include the Kind type — those helpers classify an
	// outcome into the kind that gets recorded.
	funcs, _ := m.index()
	for _, node := range funcs {
		fn, p := node.fn, node.pkg
		if fn.Pkg() == rp.Pkg && (fn.Name() == "Record" || fn.Name() == "RecordExternal") {
			continue // the recorder itself is not an emission site
		}
		if sig, ok := fn.Type().(*types.Signature); ok && resultsIncludeKind(sig, kindType) {
			ast.Inspect(node.decl.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mark(p.Info.Uses[id])
				}
				return true
			})
			continue
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(p.Info, call)
			if callee == nil || callee.Pkg() != rp.Pkg {
				return true
			}
			if name := callee.Name(); name != "Record" && name != "RecordExternal" {
				return true
			}
			for _, arg := range call.Args {
				switch a := ast.Unparen(arg).(type) {
				case *ast.Ident:
					mark(p.Info.Uses[a])
				case *ast.SelectorExpr:
					mark(p.Info.Uses[a.Sel])
				}
			}
			return true
		})
	}

	var out []Finding
	for _, c := range kinds {
		if !emitted[c] {
			out = append(out, Finding{Analyzer: "replaycover", Pos: m.position(c.Pos()),
				Message: "replay.Kind " + c.Name() + " is never emitted by any record site; emit it or delete it"})
		}
	}
	return out
}

// kindZero reports whether c's value is exactly 0 (the KNone sentinel).
func kindZero(c *types.Const) (bool, bool) {
	v := c.Val()
	if v == nil || v.Kind() != constant.Int {
		return false, false
	}
	i, exact := constant.Int64Val(v)
	return i == 0, exact
}

// resultsIncludeKind reports whether sig's result list includes the Kind
// type.
func resultsIncludeKind(sig *types.Signature, kindType types.Type) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), kindType) {
			return true
		}
	}
	return false
}

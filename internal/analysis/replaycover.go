package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Replaycover keeps the record and replay halves of the schedule-trace
// vocabulary symmetric. The replay package declares the event vocabulary
// as constants of a named type Kind; recording happens through the
// Recorder's Record/RecordExternal methods; replay consumes events
// through the Cursor's methods. Three asymmetries rot silently, and this
// analyzer flags each:
//
//   - a Kind no record site ever emits: dead vocabulary, or a recording
//     path that quietly lost its event. Deliberately unemitted kinds
//     (reserved encoding space) are annotated //nowa:replay-reserved
//     <reason> on their declaration.
//   - a Kind that is emitted but never consulted by the replay cursor
//     and not annotated //nowa:replay-diagnostic <reason>: either the
//     replay path forgot it (a divergence waiting to happen) or it is
//     trace-only and must say so.
//   - a Kind annotated trace-only that the cursor does consume: the
//     annotation lies; drop it.
//
// Emission sites are Record/RecordExternal calls passing the Kind
// constant directly, plus any module function whose result list includes
// the Kind type (outcome-classification helpers like stealOutcomeKind
// return the kind they emit); every Kind constant referenced in such a
// function counts as emitted. Consumption is the set of Kind constants
// referenced in the Cursor's methods and everything they statically call
// inside the replay package. The zero Kind (KNone) is the absent-event
// sentinel and exempt, as is a blank (_) holding a retired kind's number.
func Replaycover() *Analyzer {
	return &Analyzer{
		Name: "replaycover",
		Doc:  "require every replay.Kind to be emitted and either consumed on replay or annotated //nowa:replay-diagnostic",
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

// kindConst is one declared Kind constant with its annotation scope.
type kindConst struct {
	obj        *types.Const
	pos        token.Position
	diagnostic bool
	reserved   bool
}

func checkReplayPkg(m *Module, rp *Package, kindType types.Type) []Finding {
	var out []Finding

	// Collect the vocabulary: Kind-typed constants of the replay package,
	// with their //nowa:replay-* annotations. The zero value is the
	// absent-event sentinel and exempt from coverage; so is a blank,
	// which holds a retired kind's number and which no code can name.
	var kinds []*kindConst
	byObj := make(map[*types.Const]*kindConst)
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
				doc := vs.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				for _, nm := range vs.Names {
					if nm.Name == "_" {
						continue
					}
					c, ok := rp.Info.Defs[nm].(*types.Const)
					if !ok || !types.Identical(c.Type(), kindType) {
						continue
					}
					if v, exact := kindZero(c); exact && v {
						continue
					}
					kc := &kindConst{obj: c, pos: m.position(nm.Pos())}
					_, kc.diagnostic = rp.Notes.declNoteGet(m, doc, nm.Pos(), "replay-diagnostic")
					_, kc.reserved = rp.Notes.declNoteGet(m, doc, nm.Pos(), "replay-reserved")
					kinds = append(kinds, kc)
					byObj[c] = kc
				}
			}
		}
	}
	if len(kinds) == 0 {
		return out
	}

	funcs, _ := m.index()
	emitted := make(map[*kindConst]bool)
	markUses := func(p *Package, body *ast.BlockStmt, set map[*kindConst]bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if c, ok := p.Info.Uses[id].(*types.Const); ok {
					if kc := byObj[c]; kc != nil {
						set[kc] = true
					}
				}
			}
			return true
		})
	}

	// Emission rule 1: a Kind constant passed directly to a
	// Record/RecordExternal method of the replay package.
	// Emission rule 2: any Kind constant referenced in a module function
	// whose results include the Kind type — those helpers classify an
	// outcome into the kind that gets recorded.
	for _, node := range funcs {
		fn := node.fn
		if fn.Pkg() == rp.Pkg && (fn.Name() == "Record" || fn.Name() == "RecordExternal") {
			continue // the recorder itself is not an emission site
		}
		if sig, ok := fn.Type().(*types.Signature); ok && resultsIncludeKind(sig, kindType) {
			markUses(node.pkg, node.decl.Body, emitted)
			continue
		}
		p := node.pkg
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
				id, ok := ast.Unparen(arg).(*ast.Ident)
				var obj types.Object
				if ok {
					obj = p.Info.Uses[id]
				} else if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
					obj = p.Info.Uses[sel.Sel]
				}
				if c, ok := obj.(*types.Const); ok {
					if kc := byObj[c]; kc != nil {
						emitted[kc] = true
					}
				}
			}
			return true
		})
	}

	// Consumption: Kind constants referenced in the Cursor's methods and
	// everything they statically call inside the replay package.
	var cursor []*funcNode
	for _, node := range funcs {
		if sig, ok := node.fn.Type().(*types.Signature); ok && node.pkg == rp && sig.Recv() != nil &&
			namedTypeName(sig.Recv().Type()) == "Cursor" {
			cursor = append(cursor, node)
		}
	}
	consumed := make(map[*kindConst]bool)
	for node := range m.reach(cursor, func(n *funcNode) bool { return n.pkg == rp }) {
		markUses(node.pkg, node.decl.Body, consumed)
	}

	for _, kc := range kinds {
		name := kc.obj.Name()
		switch {
		case !emitted[kc] && !kc.reserved:
			out = append(out, Finding{Analyzer: "replaycover", Pos: kc.pos,
				Message: "replay.Kind " + name + " is never emitted by any record site; emit it or annotate //nowa:replay-reserved <reason>"})
		case emitted[kc] && kc.reserved:
			out = append(out, Finding{Analyzer: "replaycover", Pos: kc.pos,
				Message: "replay.Kind " + name + " is annotated //nowa:replay-reserved but has a record site; drop the annotation"})
		}
		switch {
		case emitted[kc] && !consumed[kc] && !kc.diagnostic:
			out = append(out, Finding{Analyzer: "replaycover", Pos: kc.pos,
				Message: "replay.Kind " + name + " is recorded but never consulted on the replay path; consume it or annotate //nowa:replay-diagnostic <reason>"})
		case consumed[kc] && kc.diagnostic:
			out = append(out, Finding{Analyzer: "replaycover", Pos: kc.pos,
				Message: "replay.Kind " + name + " is annotated //nowa:replay-diagnostic but the replay cursor consumes it; drop the annotation"})
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

// namedTypeName returns the name of t's named type after pointer
// indirection, or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
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

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath turns the zero-alloc fast-path property into a compile-time
// gate. Functions annotated //nowa:hotpath — the Spawn/Sync ladder, the
// parker rendezvous, the scope-ring and owner-side deque operations —
// and every intra-module function they transitively call must be free of
// the constructs that allocate or block:
//
//   - channel operations (send, receive, close, select, range-over-chan)
//   - defer and go statements
//   - map writes (assignment through a map index, delete)
//   - allocating builtins (make, new, append)
//   - address-taken composite literals and slice/map literals
//   - function literals that capture enclosing variables
//   - implicit or explicit conversions that box a non-pointer-shaped
//     value into an interface
//
// Documented slow paths reachable from hot code (pool refill, ring
// growth, diagnostics) are cut out of the traversal with //nowa:coldpath
// <reason>; a single intended construct inside hot code (the parker's
// one-slot channel send and receive) is suppressed with
// //nowa:hotpath-ok <reason> on its line. Calls through interfaces or
// stored function values cannot be traversed statically and end the
// analysis at that boundary — keep hot code devirtualised, as the
// scheduler's Chase–Lev path already is, and the gate covers it.
//
// The runtime AllocsPerRun tests (alloc_test.go) measure the same
// property after the fact; this analyzer rejects the regression at build
// time and names the construct that caused it.
func Hotpath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "forbid allocating/blocking constructs in //nowa:hotpath functions and their intra-module callees",
		Run:  runHotpath,
	}
}

func runHotpath(m *Module) []Finding {
	// Roots and cold cuts come from declaration annotations.
	funcs, _ := m.index()
	var roots []*funcNode
	cold := make(map[*funcNode]bool)
	for _, n := range funcs {
		if n.pkg.Notes.declNote(m, n.decl.Doc, n.decl.Pos(), "coldpath") {
			cold[n] = true
		}
		if n.pkg.Notes.declNote(m, n.decl.Doc, n.decl.Pos(), "hotpath") {
			roots = append(roots, n)
		}
	}
	var out []Finding
	for n, root := range m.reach(roots, func(n *funcNode) bool { return !cold[n] }) {
		out = append(out, checkHotFunc(m, n, funcDisplayName(root.decl))...)
	}
	return out
}

// checkHotFunc walks one hot function's body for forbidden constructs.
func checkHotFunc(m *Module, node *funcNode, root string) []Finding {
	p := node.pkg
	info := p.Info
	var out []Finding
	report := func(pos token.Pos, construct string) {
		position := m.position(pos)
		if p.Notes.lineNote(position, "hotpath-ok") {
			return
		}
		out = append(out, Finding{
			Analyzer: "hotpath",
			Pos:      position,
			Message: fmt.Sprintf("%s in hot function %s (reached from //nowa:hotpath root %s); move it behind //nowa:coldpath or annotate the line //nowa:hotpath-ok <reason>",
				construct, funcDisplayName(node.decl), root),
		})
	}

	sig, _ := info.Defs[node.decl.Name].Type().(*types.Signature)

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if captured := capturedVars(info, n); len(captured) > 0 {
				report(n.Pos(), fmt.Sprintf("closure capturing %s", captured[0].Name()))
			}
			return false // the literal's body runs elsewhere; not this path
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.SelectStmt:
			report(n.Pos(), "select statement")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address-taken composite literal (heap allocation)")
				}
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.DeferStmt:
			report(n.Pos(), "defer statement")
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n.Pos(), "range over channel")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "slice/map literal (heap allocation)")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportMapWrite(info, report, lhs)
			}
			checkAssignBoxing(info, report, n)
		case *ast.IncDecStmt:
			reportMapWrite(info, report, n.X)
		case *ast.ValueSpec:
			checkValueSpecBoxing(info, report, n)
		case *ast.ReturnStmt:
			checkReturnBoxing(info, report, sig, n)
		case *ast.CallExpr:
			checkCall(info, report, n)
		}
		return true
	})
	return out
}

// reportMapWrite flags an assignment target that indexes a map.
func reportMapWrite(info *types.Info, report func(token.Pos, string), lhs ast.Expr) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if tv, ok := info.Types[idx.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			report(lhs.Pos(), "map write")
		}
	}
}

// checkCall flags builtins and boxing conversions at call sites.
func checkCall(info *types.Info, report func(token.Pos, string), call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				report(call.Pos(), "allocating builtin "+b.Name())
			case "close":
				report(call.Pos(), "channel close")
			case "delete":
				report(call.Pos(), "map write (delete)")
			}
			return
		}
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Explicit conversion T(x).
		if len(call.Args) == 1 {
			checkBox(info, report, call.Args[0], tv.Type)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBox(info, report, arg, pt)
	}
}

func checkAssignBoxing(info *types.Info, report func(token.Pos, string), n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		if tv, ok := info.Types[n.Lhs[i]]; ok {
			checkBox(info, report, rhs, tv.Type)
		}
	}
}

func checkValueSpecBoxing(info *types.Info, report func(token.Pos, string), n *ast.ValueSpec) {
	if len(n.Names) != len(n.Values) {
		return
	}
	for i, v := range n.Values {
		if obj := info.Defs[n.Names[i]]; obj != nil {
			checkBox(info, report, v, obj.Type())
		}
	}
}

func checkReturnBoxing(info *types.Info, report func(token.Pos, string), sig *types.Signature, n *ast.ReturnStmt) {
	if sig == nil || len(n.Results) != sig.Results().Len() {
		return
	}
	for i, res := range n.Results {
		checkBox(info, report, res, sig.Results().At(i).Type())
	}
}

// checkBox reports a conversion of expr to target type that would box a
// non-pointer-shaped value into an interface. Pointer-shaped values
// (pointers, channels, maps, funcs, unsafe.Pointer) fit the interface
// data word directly and do not allocate.
func checkBox(info *types.Info, report func(token.Pos, string), expr ast.Expr, to types.Type) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	// A type parameter "is" an interface through its constraint, but an
	// assignment to one is a generic-instantiation artifact, not a boxing
	// conversion; at any concrete instantiation it is a plain assignment.
	if _, ok := to.(*types.TypeParam); ok {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.IsNil() {
		return
	}
	from := tv.Type
	if from == nil || types.IsInterface(from) {
		return
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	report(expr.Pos(), fmt.Sprintf("interface conversion boxing %s", types.TypeString(from, nil)))
}

// capturedVars lists variables referenced inside lit but declared
// outside it (and not at package scope): the captures that would force
// the closure and its captives to the heap.
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Package-scope variables are not captures.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

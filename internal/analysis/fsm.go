package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Fsm checks every atomic operation on an annotated state word against
// the field's declared state machine. A field enrolls with
//
//	//nowa:fsm phases=idle,pending,inline transitions=idle>pending,pending>inline [mask=phaseMask]
//
// where the phase names are constants of the field's package (or the
// literals false,true for an atomic.Bool) and mask, when given, names the
// constant whose bits carry the phase — the remaining bits are free
// payload (an ABA round counter packed above the phase, say). The
// analyzer then requires:
//
//   - CompareAndSwap(old, new): the (old, new) phases infer statically
//     and form a declared transition
//   - Swap(new), Store(new), and plain writes to a raw-word field: the
//     new phase infers statically and is either the target of some
//     declared transition or the zero phase (initialisation and
//     consume-side resets re-arm the machine at its zero state)
//   - no Add/Or/And: phase words move only through total transitions,
//     never arithmetic
//
// Phase inference folds constant subexpressions (a constant whose phase
// bits are all zero is neutral payload, so round increments like
// 1<<roundShift vanish), treats x&^mask as neutral whatever x was, maps
// declared phase constants to their phase, and propagates through :=/=
// into local variables in source order. An operand it cannot resolve —
// a CAS whose old value was loaded and dynamically range-checked — is a
// finding, suppressed line-scoped with //nowa:fsm-ok <reason> where the
// dynamic guard is the documented protocol.
//
// Both sync/atomic wrapper methods (x.f.CompareAndSwap) and package
// functions (atomic.CompareAndSwapUint32(&x.f, ...)) are recognised, so
// a raw word and a wrapped state word get the same gate.
func Fsm() *Analyzer {
	return &Analyzer{
		Name: "fsm",
		Doc:  "check atomic ops on //nowa:fsm fields against the declared phase/transition machine",
		Run:  runFsm,
	}
}

// fsmPhase is one declared phase constant.
type fsmPhase struct {
	name string
	val  constant.Value
}

// fsmDecl is one enrolled state field with its parsed machine.
type fsmDecl struct {
	fld     *types.Var
	name    string // owner.field, for messages
	phases  []*fsmPhase
	byObj   map[types.Object]*fsmPhase
	mask    constant.Value // nil: the whole word is the phase
	trans   map[[2]*fsmPhase]bool
	targets map[*fsmPhase]bool // phases reachable as a transition target
	zero    *fsmPhase          // phase whose masked value is 0 / false
	isBool  bool
}

// phase-inference lattice.
const (
	pNeutral = iota // no phase bits set (payload only)
	pPhase          // exactly one declared phase
	pUnknown        // not statically resolvable
)

type phaseVal struct {
	kind int
	ph   *fsmPhase
}

func runFsm(m *Module) []Finding {
	var out []Finding
	decls := collectFsmDecls(m, &out)
	if len(decls) == 0 {
		return out
	}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			checkFsmFile(m, p, f, decls, &out)
		}
	}
	return out
}

// collectFsmDecls finds //nowa:fsm annotated struct fields and parses
// and validates their machines.
func collectFsmDecls(m *Module, out *[]Finding) map[*types.Var]*fsmDecl {
	decls := make(map[*types.Var]*fsmDecl)
	for _, p := range m.Packages {
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
						note, ok := p.Notes.declNoteGet(m, fd.Doc, fd.Pos(), "fsm")
						if !ok {
							continue
						}
						for _, nm := range fd.Names {
							fld, ok := p.Info.Defs[nm].(*types.Var)
							if !ok {
								continue
							}
							if d := parseFsmDecl(p, fld, ts.Name.Name, note, out); d != nil {
								decls[fld] = d
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// parseFsmDecl builds one fsmDecl from its annotation, reporting grammar
// problems as findings and returning nil on any of them.
func parseFsmDecl(p *Package, fld *types.Var, owner string, note Note, out *[]Finding) *fsmDecl {
	bad := func(msg string) *fsmDecl {
		*out = append(*out, Finding{Analyzer: "fsm", Pos: note.Pos, Message: "//nowa:fsm: " + msg})
		return nil
	}
	args, errMsg := parseArgs(note.Reason)
	if errMsg != "" {
		return bad(errMsg)
	}
	for k := range args {
		if k != "phases" && k != "transitions" && k != "mask" {
			return bad("unknown argument key " + fmt.Sprintf("%q", k))
		}
	}
	if args["phases"] == "" || args["transitions"] == "" {
		return bad("phases= and transitions= are both required")
	}
	d := &fsmDecl{
		fld:     fld,
		name:    owner + "." + fld.Name(),
		byObj:   make(map[types.Object]*fsmPhase),
		trans:   make(map[[2]*fsmPhase]bool),
		targets: make(map[*fsmPhase]bool),
	}
	scope := fld.Pkg().Scope()
	byName := make(map[string]*fsmPhase)
	boolPhases, constPhases := 0, 0
	for _, name := range strings.Split(args["phases"], ",") {
		if name == "" {
			return bad("empty phase name")
		}
		if byName[name] != nil {
			return bad("duplicate phase " + name)
		}
		ph := &fsmPhase{name: name}
		switch name {
		case "false", "true":
			ph.val = constant.MakeBool(name == "true")
			boolPhases++
		default:
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				return bad("phase " + name + " does not name a constant in package " + fld.Pkg().Name())
			}
			ph.val = c.Val()
			d.byObj[c] = ph
			constPhases++
		}
		d.phases = append(d.phases, ph)
		byName[name] = ph
	}
	if boolPhases > 0 && constPhases > 0 {
		return bad("phases mix bool literals and named constants")
	}
	d.isBool = boolPhases > 0
	if maskName := args["mask"]; maskName != "" {
		if d.isBool {
			return bad("mask= does not apply to bool phases")
		}
		c, ok := scope.Lookup(maskName).(*types.Const)
		if !ok {
			return bad("mask " + maskName + " does not name a constant in package " + fld.Pkg().Name())
		}
		d.mask = c.Val()
	}
	for _, pair := range strings.Split(args["transitions"], ",") {
		from, to, ok := strings.Cut(pair, ">")
		if !ok || byName[from] == nil || byName[to] == nil {
			return bad("transition " + fmt.Sprintf("%q", pair) + " must be <phase>><phase> over declared phases")
		}
		d.trans[[2]*fsmPhase{byName[from], byName[to]}] = true
		d.targets[byName[to]] = true
	}
	for _, ph := range d.phases {
		if d.maskedZero(ph.val) {
			d.zero = ph
			break
		}
	}
	return d
}

// maskedZero reports whether constant value v has no phase bits set
// under the decl's mask (false counts as zero for bool machines).
func (d *fsmDecl) maskedZero(v constant.Value) bool {
	if v == nil {
		return false
	}
	if v.Kind() == constant.Bool {
		return !constant.BoolVal(v)
	}
	if v.Kind() != constant.Int {
		return false
	}
	if d.mask != nil {
		v = constant.BinaryOp(v, token.AND, d.mask)
	}
	i, ok := constant.Int64Val(v)
	return ok && i == 0
}

// phaseEq compares a constant value to a phase's value under the mask.
func (d *fsmDecl) phaseMatch(v constant.Value) *fsmPhase {
	for _, ph := range d.phases {
		if constant.Compare(ph.val, token.EQL, v) {
			return ph
		}
	}
	return nil
}

// isMaskExpr reports whether e is (a constant equal to) the declared
// mask.
func (d *fsmDecl) isMaskExpr(info *types.Info, e ast.Expr) bool {
	if d.mask == nil {
		return false
	}
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.Value != nil && constant.Compare(tv.Value, token.EQL, d.mask)
}

// phaseOf infers the phase of expression e. tags carries the inferred
// phase of local variables assigned earlier in source order.
func (d *fsmDecl) phaseOf(info *types.Info, tags map[*types.Var]phaseVal, e ast.Expr) phaseVal {
	e = ast.Unparen(e)
	// Constant expressions with no phase bits are neutral payload
	// (1<<roundShift round increments, zero initialisers, false).
	if tv, ok := info.Types[e]; ok && tv.Value != nil && d.maskedZero(tv.Value) {
		return phaseVal{kind: pNeutral}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if ph := d.byObj[obj]; ph != nil {
			return phaseVal{kind: pPhase, ph: ph}
		}
		if c, ok := obj.(*types.Const); ok && d.isBool && c.Val().Kind() == constant.Bool {
			if ph := d.phaseMatch(c.Val()); ph != nil {
				return phaseVal{kind: pPhase, ph: ph}
			}
		}
		if v, ok := obj.(*types.Var); ok {
			if t, ok := tags[v]; ok {
				return t
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.AND_NOT && d.isMaskExpr(info, e.Y) {
			return phaseVal{kind: pNeutral} // x &^ mask strips the phase whatever x was
		}
		return combinePhase(d.phaseOf(info, tags, e.X), d.phaseOf(info, tags, e.Y))
	}
	return phaseVal{kind: pUnknown}
}

// combinePhase joins two operand inferences: neutral is the identity,
// two different phases (or anything unknown) poison the result.
func combinePhase(x, y phaseVal) phaseVal {
	switch {
	case x.kind == pUnknown || y.kind == pUnknown:
		return phaseVal{kind: pUnknown}
	case x.kind == pNeutral:
		return y
	case y.kind == pNeutral:
		return x
	case x.ph == y.ph:
		return x
	}
	return phaseVal{kind: pUnknown}
}

// resolvePhase lands an inference on a concrete phase: neutral means the
// phase bits are zero, i.e. the zero phase if the machine declares one.
func (d *fsmDecl) resolvePhase(pv phaseVal) (*fsmPhase, bool) {
	switch pv.kind {
	case pPhase:
		return pv.ph, true
	case pNeutral:
		if d.zero != nil {
			return d.zero, true
		}
	}
	return nil, false
}

// checkFsmFile walks one file, tagging local variables and checking
// every atomic (or plain-write) touch of an enrolled field.
func checkFsmFile(m *Module, p *Package, f *ast.File, decls map[*types.Var]*fsmDecl, out *[]Finding) {
	info := p.Info
	tags := make(map[*types.Var]phaseVal)
	report := func(pos token.Pos, msg string) {
		position := m.position(pos)
		if p.Notes.lineNote(position, "fsm-ok") {
			return
		}
		*out = append(*out, Finding{Analyzer: "fsm", Pos: position, Message: msg})
	}

	// tagAssign records the inferred phase of single-value assignments to
	// local variables, against every enrolled machine (vars are unique
	// objects, so one file-wide map cannot collide across functions).
	tagAssign := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return
		}
		// Tag against the first machine that resolves it; tags is keyed by
		// variable, and a variable mixes phases of two machines never.
		for _, d := range decls {
			pv := d.phaseOf(info, tags, rhs)
			if pv.kind != pUnknown {
				tags[v] = pv
				return
			}
		}
		tags[v] = phaseVal{kind: pUnknown}
	}

	checkWrite := func(d *fsmDecl, op string, pos token.Pos, newE ast.Expr) {
		ph, ok := d.resolvePhase(d.phaseOf(info, tags, newE))
		if !ok {
			report(pos, fmt.Sprintf("%s on fsm field %s: cannot infer the stored phase statically; use the declared phase constants or annotate //nowa:fsm-ok <reason>", op, d.name))
			return
		}
		if !d.targets[ph] && ph != d.zero {
			report(pos, fmt.Sprintf("%s of phase %s on fsm field %s: %s is not the target of any declared transition", op, ph.name, d.name, ph.name))
		}
	}
	checkCAS := func(d *fsmDecl, pos token.Pos, oldE, newE ast.Expr) {
		oldPh, okOld := d.resolvePhase(d.phaseOf(info, tags, oldE))
		newPh, okNew := d.resolvePhase(d.phaseOf(info, tags, newE))
		if !okOld || !okNew {
			report(pos, fmt.Sprintf("CompareAndSwap on fsm field %s: cannot infer the (old, new) phases statically; use the declared phase constants or annotate //nowa:fsm-ok <reason>", d.name))
			return
		}
		if !d.trans[[2]*fsmPhase{oldPh, newPh}] {
			report(pos, fmt.Sprintf("CompareAndSwap on fsm field %s implements undeclared transition %s>%s", d.name, oldPh.name, newPh.name))
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if fld := fieldOf(info, n.Lhs[i]); fld != nil {
						if d := decls[fld]; d != nil {
							checkWrite(d, "plain write", n.Lhs[i].Pos(), n.Rhs[i])
							continue
						}
					}
					tagAssign(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.IncDecStmt:
			if fld := fieldOf(info, n.X); fld != nil {
				if d := decls[fld]; d != nil {
					report(n.Pos(), "increment/decrement of fsm field "+d.name+": phase words move only through declared transitions")
				}
			}
		case *ast.CallExpr:
			var d *fsmDecl
			var op string
			var args []ast.Expr
			if recv := atomicMethodTarget(info, n); recv != nil {
				if fld := fieldOf(info, recv); fld != nil {
					d = decls[fld]
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					op = sel.Sel.Name
				}
				args = n.Args
			} else if target := atomicFnTarget(info, n); target != nil {
				if fld := fieldOf(info, target); fld != nil {
					d = decls[fld]
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					// StoreUint32 -> Store, CompareAndSwapUint64 -> CompareAndSwap, ...
					for _, base := range []string{"CompareAndSwap", "Swap", "Store", "Load", "Add", "Or", "And"} {
						if strings.HasPrefix(sel.Sel.Name, base) {
							op = base
							break
						}
					}
				}
				args = n.Args[1:] // Args[0] is &field
			}
			if d == nil || op == "" {
				return true
			}
			switch op {
			case "Load":
				// Reads are unconstrained.
			case "Store":
				if len(args) == 1 {
					checkWrite(d, "Store", n.Pos(), args[0])
				}
			case "Swap":
				if len(args) == 1 {
					checkWrite(d, "Swap", n.Pos(), args[0])
				}
			case "CompareAndSwap":
				if len(args) == 2 {
					checkCAS(d, n.Pos(), args[0], args[1])
				}
			case "Add", "Or", "And":
				report(n.Pos(), op+" on fsm field "+d.name+": phase words move only through declared transitions")
			}
		}
		return true
	})
}

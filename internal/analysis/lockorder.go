package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Lockorder turns the documented mutex hierarchy into a build-time gate.
// A sync.Mutex struct field enrolls with //nowa:lock level=N name=X; the
// analyzer then walks every function body (and every function literal,
// separately, since a literal's body runs on some other strand's stack)
// tracking which enrolled locks are held in source order, and flags:
//
//   - out-of-order acquisition: taking an enrolled lock while holding one
//     of equal or higher level (levels must strictly increase along any
//     acquisition chain, so the hierarchy is total and deadlock-free)
//   - double-lock: re-acquiring a lock already held, directly or through
//     a callee that acquires it
//   - blocking while holding: a channel send/receive, select without
//     default, range over a channel, time.Sleep, Cond.Wait or
//     WaitGroup.Wait — directly or through any statically resolvable
//     intra-module callee — while an enrolled lock is held. Parking a
//     strand under a scheduler lock is how service-mode backpressure
//     deadlocks are born; the runtime's rule is unlock first, then park.
//     The send or receive a select case waits on counts only through
//     its select, so a select with a default blocks nowhere.
//
// Callees are summarised by a fixpoint over the static call graph (the
// same staticCallee resolution the hotpath analyzer uses): each function
// gets the set of enrolled locks it may transitively acquire and whether
// it may block. Calls through interfaces or function values end the
// traversal, as does a go statement (the spawned work does not run under
// the caller's locks) and a function literal (summarised only for itself).
//
// The walk is path-insensitive and sequential: an early-return branch
// that unlocks before returning removes the lock for the remainder of the
// walk, which under-approximates the fall-through path. That trades a
// class of false positives (the analyzer never guesses about branches)
// for precision on the straight-line acquire/release idiom the runtime
// uses; deferred Unlock keeps the lock held to the end of the function,
// matching its dynamic extent.
//
// A documented exception is suppressed line-scoped with
// //nowa:lock-ok <reason>.
func Lockorder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "enforce the //nowa:lock level hierarchy: ordered acquisition, no double-lock, no blocking while holding",
		Run:  runLockorder,
	}
}

// lockDecl is one enrolled mutex field.
type lockDecl struct {
	fld   *types.Var
	level int
	name  string
}

// lockSummary is the transitive lock behaviour of one declared function.
type lockSummary struct {
	acquires map[*lockDecl]bool
	blocks   bool
	name     string
	callees  []*types.Func
}

// blockingStdlibFns are stdlib calls treated as parking the strand.
var blockingStdlibFns = map[string]bool{
	"time.Sleep":             true,
	"(*sync.Cond).Wait":      true,
	"(*sync.WaitGroup).Wait": true,
}

func runLockorder(m *Module) []Finding {
	var out []Finding
	locks := collectLockDecls(m, &out)
	if len(locks) == 0 {
		return out
	}

	// Compute every declared function's direct facts.
	funcs, _ := m.index()
	summaries := make(map[*types.Func]*lockSummary, len(funcs))
	for _, n := range funcs {
		summaries[n.fn] = directLockFacts(n.pkg.Info, locks, n.decl.Body, funcDisplayName(n.decl))
	}

	// Fixpoint: merge callee summaries until stable.
	for changed := true; changed; {
		changed = false
		for _, s := range summaries {
			for _, callee := range s.callees {
				cs := summaries[callee]
				if cs == nil {
					continue
				}
				if cs.blocks && !s.blocks {
					s.blocks = true
					changed = true
				}
				for d := range cs.acquires {
					if !s.acquires[d] {
						s.acquires[d] = true
						changed = true
					}
				}
			}
		}
	}

	// Check every function body, then every function literal with an
	// empty held set (a literal runs on whatever stack invokes it).
	w := &lockWalker{m: m, locks: locks, summaries: summaries}
	for _, n := range funcs {
		w.check(n.pkg, n.decl.Body)
	}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					w.check(p, lit.Body)
				}
				return true
			})
		}
	}
	out = append(out, w.out...)
	return out
}

// collectLockDecls finds //nowa:lock annotated struct fields and
// validates the annotation arguments.
func collectLockDecls(m *Module, out *[]Finding) map[*types.Var]*lockDecl {
	locks := make(map[*types.Var]*lockDecl)
	bad := func(pos token.Position, msg string) {
		*out = append(*out, Finding{Analyzer: "lockorder", Pos: pos, Message: msg})
	}
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
						note, ok := p.Notes.declNoteGet(m, fd.Doc, fd.Pos(), "lock")
						if !ok {
							continue
						}
						args, errMsg := parseArgs(note.Reason)
						if errMsg != "" {
							bad(note.Pos, "//nowa:lock: "+errMsg)
							continue
						}
						level, err := strconv.Atoi(args["level"])
						if args["level"] == "" || err != nil {
							bad(note.Pos, "//nowa:lock requires level=<integer>")
							continue
						}
						for k := range args {
							if k != "level" && k != "name" {
								bad(note.Pos, "//nowa:lock: unknown argument key "+strconv.Quote(k))
							}
						}
						for _, nm := range fd.Names {
							fld, ok := p.Info.Defs[nm].(*types.Var)
							if !ok {
								continue
							}
							if !isMutexType(fld.Type()) {
								bad(note.Pos, "//nowa:lock on non-sync.Mutex field "+fld.Name())
								continue
							}
							name := args["name"]
							if name == "" {
								name = ts.Name.Name + "." + fld.Name()
							}
							locks[fld] = &lockDecl{fld: fld, level: level, name: name}
						}
					}
				}
			}
		}
	}
	return locks
}

// isMutexType reports whether t is sync.Mutex, or an alias of it such
// as internal/atomicx.Mutex.
func isMutexType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync" && n.Obj().Name() == "Mutex"
}

// lockMethodOn resolves call to (Lock|Unlock) on an enrolled mutex field.
func lockMethodOn(info *types.Info, locks map[*types.Var]*lockDecl, call *ast.CallExpr) (*lockDecl, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "Unlock" {
		return nil, ""
	}
	fld := fieldOf(info, sel.X)
	if fld == nil {
		return nil, ""
	}
	return locks[fld], op
}

// directLockFacts computes one function's own acquisitions, blocking
// operations, and static intra-module callees, excluding function
// literals, go statements, and deferred calls (a deferred Unlock releases
// at exit; nothing a defer does runs under the locks at the defer site).
func directLockFacts(info *types.Info, locks map[*types.Var]*lockDecl, body *ast.BlockStmt, name string) *lockSummary {
	s := &lockSummary{acquires: make(map[*lockDecl]bool), name: name}
	if body == nil {
		return s
	}
	skip := make(map[ast.Node]bool) // select comm ops accounted at the select
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !skip[n] {
				s.blocks = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !skip[n] {
				s.blocks = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				s.blocks = true
			}
			skipCommOps(n, skip)
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) {
				s.blocks = true
			}
		case *ast.CallExpr:
			if d, op := lockMethodOn(info, locks, n); d != nil && op == "Lock" {
				s.acquires[d] = true
				return true
			}
			if callee := staticCallee(info, n); callee != nil {
				if blockingStdlibFns[callee.FullName()] {
					s.blocks = true
				} else {
					s.callees = append(s.callees, callee.Origin())
				}
			}
		}
		return true
	})
	return s
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// skipCommOps marks the send or receive each case of sel waits on: the
// select, not the operation, decides whether the statement can block.
// The case bodies, and any operand a case evaluates first, are still
// walked.
func skipCommOps(sel *ast.SelectStmt, skip map[ast.Node]bool) {
	for _, clause := range sel.Body.List {
		switch c := clause.(*ast.CommClause).Comm.(type) {
		case *ast.SendStmt:
			skip[c] = true
		case *ast.ExprStmt:
			skip[ast.Unparen(c.X)] = true
		case *ast.AssignStmt:
			skip[ast.Unparen(c.Rhs[0])] = true
		}
	}
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// lockWalker checks one body at a time with a mutable held set.
type lockWalker struct {
	m         *Module
	locks     map[*types.Var]*lockDecl
	summaries map[*types.Func]*lockSummary
	out       []Finding
}

func (w *lockWalker) check(p *Package, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	var held []*lockDecl
	skip := make(map[ast.Node]bool) // select comm ops accounted at the select
	report := func(pos token.Pos, msg string) {
		position := w.m.position(pos)
		if p.Notes.lineNote(position, "lock-ok") {
			return
		}
		w.out = append(w.out, Finding{Analyzer: "lockorder", Pos: position, Message: msg})
	}
	heldNames := func() string {
		names := make([]string, len(held))
		for i, d := range held {
			names[i] = d.name + " (level " + strconv.Itoa(d.level) + ")"
		}
		return strings.Join(names, ", ")
	}
	maxHeld := func() *lockDecl {
		var top *lockDecl
		for _, d := range held {
			if top == nil || d.level > top.level {
				top = d
			}
		}
		return top
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function exit; any
			// other deferred work runs outside this walk's extent.
			return false
		case *ast.SelectStmt:
			hasDefault := selectHasDefault(n)
			if !hasDefault && len(held) > 0 {
				report(n.Pos(), "select without default while holding "+heldNames())
			}
			skipCommOps(n, skip)
		case *ast.SendStmt:
			if !skip[n] && len(held) > 0 {
				report(n.Pos(), "channel send while holding "+heldNames())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !skip[n] && len(held) > 0 {
				report(n.Pos(), "channel receive while holding "+heldNames())
			}
		case *ast.RangeStmt:
			if isChanExpr(p.Info, n.X) && len(held) > 0 {
				report(n.Pos(), "range over channel while holding "+heldNames())
			}
		case *ast.CallExpr:
			if d, op := lockMethodOn(p.Info, w.locks, n); d != nil {
				if op == "Unlock" {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == d {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
					return true
				}
				for _, h := range held {
					if h == d {
						report(n.Pos(), "lock "+d.name+" acquired while already held (double-lock)")
					}
				}
				if top := maxHeld(); top != nil && top != d && top.level >= d.level {
					report(n.Pos(), fmt.Sprintf("lock %s (level %d) acquired while holding %s (level %d); the //nowa:lock hierarchy requires strictly increasing levels",
						d.name, d.level, top.name, top.level))
				}
				held = append(held, d)
				return true
			}
			callee := staticCallee(p.Info, n)
			if callee == nil {
				return true
			}
			if blockingStdlibFns[callee.FullName()] && len(held) > 0 {
				report(n.Pos(), "blocking call to "+callee.FullName()+" while holding "+heldNames())
				return true
			}
			sum := w.summaries[callee.Origin()]
			if sum == nil || len(held) == 0 {
				return true
			}
			for d := range sum.acquires {
				reacquired := false
				for _, h := range held {
					if h == d {
						report(n.Pos(), "call to "+sum.name+" re-acquires "+d.name+" already held (double-lock)")
						reacquired = true
						break
					}
				}
				if reacquired {
					continue
				}
				if top := maxHeld(); top != nil && top.level >= d.level {
					report(n.Pos(), fmt.Sprintf("call to %s acquires %s (level %d) while holding %s (level %d); the //nowa:lock hierarchy requires strictly increasing levels",
						sum.name, d.name, d.level, top.name, top.level))
				}
			}
			if sum.blocks {
				report(n.Pos(), "call to "+sum.name+" (which may block on a channel or park) while holding "+heldNames())
			}
		}
		return true
	})
	// Sort within this body for stable output when map iteration above
	// (summary acquire sets) produced findings.
	sort.SliceStable(w.out, func(i, j int) bool {
		a, b := w.out[i], w.out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
}

package analysis

import (
	"fmt"
	"go/ast"
)

// Atomicmix rejects mixed atomic/plain access to struct fields.
//
// Invariant: a struct field that is passed to a sync/atomic function
// anywhere in the module is part of a cross-strand protocol; every other
// read or write of it must also be atomic. A single plain load or store
// on such a field silently downgrades the protocol to a data race whose
// window the race detector may never hit (the bug class of Castañeda &
// Piña's fence-free work-stealing analysis). There is no suppression: a
// field that one site needs plain and another atomic is a protocol whose
// argument lives in a comment, so make every access atomic (or use a
// sync/atomic wrapper type) instead.
//
// A field of a sync/atomic wrapper type (atomic.Int64 &c., and their
// internal/atomicx names) has only atomic methods, but a whole-value
// assignment to or from it is a plain store or load all the same —
// `j.counter = atomicx.Int64{}` resets a join counter behind every atomic
// that orders it — and is flagged (go vet's copylocks sees only copies).
func Atomicmix() *Analyzer {
	return &Analyzer{
		Name: "atomicmix",
		Doc:  "flag plain access to struct fields that are accessed atomically elsewhere",
		Run:  runAtomicmix,
	}
}

func runAtomicmix(m *Module) []Finding {
	fields := m.rawAtomicFields()
	var out []Finding
	for _, p := range m.Packages {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, side := range [][]ast.Expr{as.Lhs, as.Rhs} {
					for _, e := range side {
						if fld := fieldOf(p.Info, e); fld != nil && isAtomicType(fld.Type()) {
							out = append(out, Finding{
								Analyzer: "atomicmix",
								Pos:      m.position(e.Pos()),
								Message: fmt.Sprintf("plain %s of atomic field %s; use its methods",
									[]string{"store", "load"}[i], fieldOwnerName(m, fld)),
							})
						}
					}
				}
				return true
			})
			// Pass 1: mark the selector operands of atomic calls as
			// sanctioned so pass 2 does not re-flag them.
			sanctioned := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if t := atomicFnTarget(p.Info, call); t != nil {
						sanctioned[t] = true
					}
				}
				return true
			})
			// Pass 2: every other occurrence of a policed field is a
			// plain access.
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				fld := fieldOf(p.Info, sel)
				if fld == nil {
					return true
				}
				atomicUses, policed := fields[fld]
				if !policed {
					return true
				}
				out = append(out, Finding{
					Analyzer: "atomicmix",
					Pos:      m.position(sel.Sel.Pos()),
					Message: fmt.Sprintf(
						"plain access to field %s, which is accessed with sync/atomic at %s; make this access atomic",
						fieldOwnerName(m, fld), atomicUses[0]),
				})
				return true
			})
		}
	}
	return out
}

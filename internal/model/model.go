// Package model is an explicit-state model checker for the scheduler's
// two multi-token protocols, in the spirit of the model-checking work the
// paper cites (§II-D, Norris & Demsky's CDSChecker): the steal-demand and
// idle-queue handshake (DESIGN.md §14) and the admission gate (§13), each
// a hand-written step machine with a planted bug the checker must find.
// The §III-C join race is checked on the real code (internal/core).
package model

import "strings"

// Result of a check.
type Result struct {
	// States is the number of distinct states explored.
	States int
	// Executions is the number of maximal interleavings examined.
	Executions int
	// Violation describes the first property violation found, nil if the
	// bounded model is safe.
	Violation *Violation
}

// Violation is a counterexample.
type Violation struct {
	// Kind is the violated property.
	Kind string
	// Trace is the step sequence leading to the violation.
	Trace []string
}

func (v *Violation) String() string {
	return v.Kind + ":\n  " + strings.Join(v.Trace, "\n  ")
}

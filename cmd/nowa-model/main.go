// Command nowa-model runs the explicit-state model checker over the
// scheduler's two multi-token protocols — the steal-demand and idle-queue
// handshake (DESIGN.md §14) and the serving runtime's admission gate
// (§13) — and prints the verdicts, with the counterexample each planted
// bug must yield. It exits 1 if a shipped protocol breaks or a planted
// bug goes unfound. The §III-C join race is checked on the real code
// instead: go test -tags nowacheck -run Naive -v ./internal/core.
package main

import (
	"fmt"
	"os"

	"nowa/internal/model"
)

func main() {
	ok := true
	fmt.Print("Steal-demand and idle-queue handshake (thieves post and park on tickets, the owner polls and resumes one; 2 thieves, 1 owner, 3 spawns):\n\n")
	for i, name := range []string{"demand", "late-add"} {
		ok = verdict(name, model.CheckDemand(model.DemandConfig{BuggyLateAdd: i == 1}), i == 1,
			"no lost wakeup, no post honoured twice, no demand outlives a strand start",
			"LOST WAKEUP FOUND (planted: re-scan moved in front of the ticket)") && ok
	}

	fmt.Print("\nAdmission gate (two producers, one shedding; one taking token; the drain check; Close):\n\n")
	for i, name := range []string{"admit", "check-first"} {
		ok = verdict(name, model.CheckAdmit(model.AdmitConfig{Cap: 1, BuggyCheckFirst: i == 1}), i == 1,
			"depth within the window, nothing taken twice or lost, drained final once true",
			"LOST SUBMISSION FOUND (planted: closed checked before depth is raised)") && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// verdict prints one check's line. A planted bug must be found and a
// shipped protocol must hold; verdict reports whether that is so.
func verdict(name string, r model.Result, planted bool, safe, found string) bool {
	fmt.Printf("%-10s  %7d states, %5d maximal executions: ", name, r.States, r.Executions)
	switch {
	case r.Violation == nil && planted:
		fmt.Println("UNEXPECTEDLY SAFE (the checker should find the planted bug)")
		return false
	case r.Violation == nil:
		fmt.Println("safe — " + safe)
	case planted:
		fmt.Printf("%s\n\n%s\n\n", found, r.Violation)
	default:
		fmt.Printf("UNEXPECTED VIOLATION\n\n%s\n\n", r.Violation)
		return false
	}
	return true
}

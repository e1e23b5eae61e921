// Command nowa-model runs the explicit-state model checker over the three
// strand-coordination protocols of the paper and prints the verdicts —
// including the concrete §III-C counterexample for the naive protocol —
// then over the scheduler's steal-demand and idle-queue handshake
// (DESIGN.md §14) and the serving runtime's admission gate (§13).
package main

import (
	"flag"
	"fmt"
	"os"

	"nowa/internal/model"
)

func main() {
	spawns := flag.Int("spawns", 2, "number of spawn statements in the modelled function (1-4 recommended)")
	flag.Parse()

	ok := true
	fmt.Printf("Exhaustive interleaving check of the worker/thief race (§III-C), %d spawn(s):\n\n", *spawns)
	for _, p := range []model.Proto{model.ProtoNaive, model.ProtoLocked, model.ProtoWaitFree} {
		ok = verdict(p.String(), model.Check(model.Config{Spawns: *spawns, Proto: p}), p == model.ProtoNaive,
			"every interleaving releases the sync point exactly once, after all children",
			"RACE FOUND (as the paper predicts)") && ok
	}
	fmt.Println("\nProtoNaive models separate queue/counter steps; ProtoLocked fuses them")
	fmt.Println("(Fibril's coupled locks, Listing 2); ProtoWaitFree keeps them separate")
	fmt.Println("but runs phase 1 on N_r' = I_max - omega (the Nowa transformation, §IV).")

	fmt.Print("\nSteal-demand and idle-queue handshake (thieves post and park on tickets, the owner polls and resumes one; 2 thieves, 1 owner, 3 spawns):\n\n")
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

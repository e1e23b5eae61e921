// Command nowa-model runs the explicit-state model checker over the three
// strand-coordination protocols of the paper and prints the verdicts —
// including the concrete §III-C counterexample for the naive protocol —
// then over the scheduler's steal-demand and idle-queue handshake
// (DESIGN.md §14).
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

	fmt.Printf("Exhaustive interleaving check of the worker/thief race (§III-C), %d spawn(s):\n\n", *spawns)
	exit := 0
	for _, p := range []model.Proto{model.ProtoNaive, model.ProtoLocked, model.ProtoWaitFree} {
		r := model.Check(model.Config{Spawns: *spawns, Proto: p})
		fmt.Printf("%-10s  %7d states, %5d maximal executions: ", p, r.States, r.Executions)
		switch {
		case r.Violation == nil && p == model.ProtoNaive:
			fmt.Println("UNEXPECTEDLY SAFE (the checker should find the race)")
			exit = 1
		case r.Violation == nil:
			fmt.Println("safe — every interleaving releases the sync point exactly once, after all children")
		case p == model.ProtoNaive:
			fmt.Printf("RACE FOUND (as the paper predicts)\n\n%s\n\n", r.Violation)
		default:
			fmt.Printf("UNEXPECTED VIOLATION\n\n%s\n\n", r.Violation)
			exit = 1
		}
	}
	fmt.Println("\nProtoNaive models separate queue/counter steps; ProtoLocked fuses them")
	fmt.Println("(Fibril's coupled locks, Listing 2); ProtoWaitFree keeps them separate")
	fmt.Println("but runs phase 1 on N_r' = I_max - omega (the Nowa transformation, §IV).")

	fmt.Println("\nSteal-demand and idle-queue handshake (thieves post and park on tickets, the owner polls and resumes one; 2 thieves, 1 owner, 3 spawns):")
	fmt.Println()
	for _, late := range []bool{false, true} {
		name := "demand"
		if late {
			name = "late-add"
		}
		r := model.CheckDemand(model.DemandConfig{BuggyLateAdd: late})
		fmt.Printf("%-10s  %7d states, %5d maximal executions: ", name, r.States, r.Executions)
		switch {
		case r.Violation == nil && late:
			fmt.Println("UNEXPECTEDLY SAFE (a re-scan before the ticket must lose a wakeup)")
			exit = 1
		case r.Violation == nil:
			fmt.Println("safe — no lost wakeup, no post honoured twice, no demand outlives a strand start")
		case late:
			fmt.Printf("LOST WAKEUP FOUND (planted: re-scan moved in front of the ticket)\n\n%s\n", r.Violation)
		default:
			fmt.Printf("UNEXPECTED VIOLATION\n\n%s\n\n", r.Violation)
			exit = 1
		}
	}
	os.Exit(exit)
}

package model

import (
	"fmt"
	"strings"
	"testing"
)

// TestParkerModel checks the parker across the spin budgets the
// scheduler uses it with — 0 (external waits park at once) and a
// positive budget (the ladder; any value past 1 only repeats the poll
// step) — over two and three chained rounds.
func TestParkerModel(t *testing.T) {
	for _, spins := range []int{0, 1, 3} {
		for _, rounds := range []int{2, 3} {
			cfg := ParkerConfig{Spins: spins, Rounds: rounds}
			t.Run(fmt.Sprintf("spins%d-rounds%d", spins, rounds), func(t *testing.T) {
				r := CheckParker(cfg)
				if r.Violation != nil {
					t.Fatalf("parker model violated:\n%s", r.Violation)
				}
				if r.States < 10 || r.Executions == 0 {
					t.Fatalf("exploration too small: %d states, %d executions", r.States, r.Executions)
				}
				t.Logf("%d states, %d terminal: no lost delivery, no double consume, deliver never blocks, reset never raced", r.States, r.Executions)
			})
		}
	}
}

// TestParkerModelCatchesBlindWait validates the checker's sensitivity:
// committing to block with a store instead of the idle→waiting CAS
// overwrites a delivery that landed first, and the owner sleeps forever.
func TestParkerModelCatchesBlindWait(t *testing.T) {
	for _, spins := range []int{0, 2} {
		r := CheckParker(ParkerConfig{Spins: spins, Rounds: 2, BuggyBlindWait: true})
		if r.Violation == nil || !strings.HasPrefix(r.Violation.Kind, "lost delivery") {
			t.Fatalf("spins=%d: blind wait not caught as a lost delivery: %v", spins, r.Violation)
		}
	}
}

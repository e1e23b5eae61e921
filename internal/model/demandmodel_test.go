package model

import (
	"strings"
	"testing"
)

// TestDemandModel checks the steal-demand handshake — two thieves, one
// owner, three spawns — in every interleaving.
func TestDemandModel(t *testing.T) {
	r := CheckDemand(DemandConfig{Spawns: 3})
	if r.Violation != nil {
		t.Fatalf("demand model violated:\n%s", r.Violation)
	}
	if r.States < 1000 || r.Executions == 0 {
		t.Fatalf("exploration too small: %d states, %d executions", r.States, r.Executions)
	}
	t.Logf("%d states, %d terminal: no lost wakeup, no post honoured twice, no demand outlives a strand start", r.States, r.Executions)
}

// TestDemandModelCatchesLateAdd validates the checker's sensitivity: a
// thief that counts itself a waiter only after its park-time post lets
// the owner answer the post, read zero waiters and skip the broadcast.
func TestDemandModelCatchesLateAdd(t *testing.T) {
	r := CheckDemand(DemandConfig{Spawns: 3, BuggyLateAdd: true})
	if r.Violation == nil || !strings.HasPrefix(r.Violation.Kind, "lost wakeup") {
		t.Fatalf("post before waiters++ not caught as a lost wakeup: %v", r.Violation)
	}
	t.Logf("found:\n%s", r.Violation)
}

package model

import (
	"strings"
	"testing"
)

// TestDemandModel checks the steal-demand and idle-queue handshake — two
// thieves, one owner, three spawns — in every interleaving.
func TestDemandModel(t *testing.T) {
	r := CheckDemand(DemandConfig{})
	if r.Violation != nil {
		t.Fatalf("demand model violated:\n%s", r.Violation)
	}
	if r.States < 1000 || r.Executions == 0 {
		t.Fatalf("exploration too small: %d states, %d executions", r.States, r.Executions)
	}
	t.Logf("%d states, %d terminal: no lost wakeup, no post honoured twice, no demand outlives a strand start", r.States, r.Executions)
}

// TestDemandModelCatchesLateAdd validates the checker's sensitivity: a
// thief that re-scans before it claims its ticket lets the owner publish
// in between, find nobody Waiting and skip the resume.
func TestDemandModelCatchesLateAdd(t *testing.T) {
	r := CheckDemand(DemandConfig{BuggyLateAdd: true})
	if r.Violation == nil || !strings.HasPrefix(r.Violation.Kind, "lost wakeup") {
		t.Fatalf("re-scan before the ticket not caught as a lost wakeup: %v", r.Violation)
	}
	t.Logf("found:\n%s", r.Violation)
}

package model

import (
	"fmt"
	"strings"
	"testing"
)

// TestAdmitModel checks the shipped admission gate at a window of one,
// where the shedding producer evicts the other's submission, and of two,
// where the two are published out of ticket order.
func TestAdmitModel(t *testing.T) {
	for _, capa := range []int{1, 2} {
		t.Run(fmt.Sprintf("cap%d", capa), func(t *testing.T) {
			r := CheckAdmit(AdmitConfig{Cap: capa})
			if r.Violation != nil {
				t.Fatalf("admission model violated:\n%s", r.Violation)
			}
			if r.States < 500 || r.Executions == 0 {
				t.Fatalf("exploration too small: %d states, %d executions", r.States, r.Executions)
			}
			t.Logf("%d states, %d terminal: depth within the window, nothing taken twice or lost, drained final", r.States, r.Executions)
		})
	}
}

// TestAdmitModelCatchesCheckFirst validates the checker's sensitivity: a
// producer that checks closed before raising depth publishes behind the
// root's drain verdict.
func TestAdmitModelCatchesCheckFirst(t *testing.T) {
	r := CheckAdmit(AdmitConfig{Cap: 1, BuggyCheckFirst: true})
	if r.Violation == nil || !strings.HasPrefix(r.Violation.Kind, "drained not final") {
		t.Fatalf("planted check-first not caught: %v", r.Violation)
	}
	t.Logf("%s (%d steps):\n%s", r.Violation.Kind, len(r.Violation.Trace), r.Violation)
}

package model

import (
	"strings"
	"testing"
)

func TestViolationString(t *testing.T) {
	v := &Violation{Kind: "k", Trace: []string{"a", "b"}}
	if got := v.String(); !strings.Contains(got, "k") || !strings.Contains(got, "a") {
		t.Errorf("violation string %q", got)
	}
}

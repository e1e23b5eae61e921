package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadArguments checks that a rejected invocation exits non-zero
// before the campaign starts — including the rate-sweep flags that
// moved to benchmark/.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"zero workers", "-workers 0"},
		{"non-numeric workers", "-workers many"},
		{"negative duration", "-dur -1s"},
		{"malformed duration", "-dur soon"},
		{"positional argument", "extra"},
		{"removed flag", "-policies failfast"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code == 0 {
				t.Errorf("exit 0, want non-zero")
			}
			if stderr.Len() == 0 {
				t.Errorf("nothing on stderr")
			}
			if stdout.Len() != 0 {
				t.Errorf("campaign output before the error:\n%s", stdout.String())
			}
		})
	}
}

package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestTableMode runs the §V table on the smallest input and checks the
// table's shape: the host line, the Ts line, the S(w) header and one
// geomean±std row per selected variant.
func TestTableMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := strings.Fields("-bench fib -variants nowa,fibril -workers 1 -runs 1 -scale test")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	want := []string{
		`^host: GOMAXPROCS=\d+ NumCPU=\d+ \| runs=1\(\+1 warm-up\) scale=test$`,
		`^$`,
		`^fib \(Ts = \d+\.\d{4} ± \d+\.\d{4} s\)$`,
		`^  variant +S\(1\)$`,
		`^  nowa +\d+\.\d\d±\d+\.\d\d *$`,
		`^  fibril +\d+\.\d\d±\d+\.\d\d *$`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, re := range want {
		if !regexp.MustCompile(re).MatchString(lines[i]) {
			t.Errorf("line %d = %q, want match for %s", i, lines[i], re)
		}
	}
}

// TestBadArguments checks that every rejected invocation exits non-zero
// with a message and prints no table — including -micro, one of the
// measurement modes that moved to benchmark/.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"unknown variant", "-bench fib -variants nowa,openmp -scale test"},
		{"unknown scale", "-bench fib -scale huge"},
		{"unknown benchmark", "-bench nosuch -scale test"},
		{"zero workers", "-bench fib -workers 0 -scale test"},
		{"non-numeric workers", "-bench fib -workers two -scale test"},
		{"removed flag", "-micro"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code == 0 {
				t.Errorf("exit 0, want non-zero")
			}
			if stderr.Len() == 0 {
				t.Errorf("nothing on stderr")
			}
			if strings.Contains(stdout.String(), "S(") {
				t.Errorf("printed a table:\n%s", stdout.String())
			}
		})
	}
}

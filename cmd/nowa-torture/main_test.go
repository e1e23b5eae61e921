package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the command's contract with the Makefile and CI:
// what each kind of invocation exits with, and where it says why.
func TestExitCodes(t *testing.T) {
	out := t.TempDir()
	for _, tc := range []struct {
		name, args string
		exit       int
		stdout     string // substring expected on stdout
		stderr     string // substring expected on stderr
	}{
		{name: "help", args: "-h", exit: 0, stderr: "-chaos string"},
		{name: "unknown flag", args: "-micro", exit: 2, stderr: "flag provided but not defined"},
		{name: "malformed value", args: "-duration soon", exit: 2, stderr: "invalid value"},
		{name: "unknown class", args: "-duration 0 -chaos light,havoc", exit: 2, stderr: `unknown chaos class "havoc" (want off, light, heavy, promote, stall, abort)`},
		{name: "empty class list", args: "-duration 0 -chaos ,", exit: 2, stderr: "empty -chaos class list"},
		{name: "unknown variant", args: "-duration 0 -variants nowa,tbb", exit: 2, stderr: `unknown variant "tbb"`},
		{name: "unknown kernel", args: "-duration 0 -kernels fib,nosuch", exit: 2, stderr: "nosuch"},
		{name: "missing bundle", args: "-replay " + out + "/absent.bundle", exit: 2, stderr: "absent.bundle"},
		{name: "empty soak", args: "-duration 0 -out " + out, exit: 0, stdout: "nowa-torture: 0 trials, 0 failures in 0s"},
		{name: "empty service soak", args: "-service -duration 0 -chaos stall -out " + out, exit: 0, stdout: "nowa-torture: 0 trials, 0 failures in 0s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.exit {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.exit, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) || (tc.stdout == "" && stdout.Len() != 0) {
				t.Errorf("stdout = %q, want it to contain %q and nothing unasked for", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "" && stderr.Len() != 0) {
				t.Errorf("stderr = %q, want it to contain %q and nothing unasked for", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestSelftestAndReplay drives the two other modes end to end: the
// selftest must pass and leave bundles behind, and -replay of its bundle
// must reproduce the planted failure.
func TestSelftestAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the capture, rerun and shrink pipeline")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-selftest", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("selftest: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"selftest trial: fib/nowa", "  trial fails as planted: vessel-leak:", "selftest passed"} {
		if !strings.Contains(stdout.String(), "\n"+want) && !strings.HasPrefix(stdout.String(), want) {
			t.Errorf("selftest output lacks a line starting %q:\n%s", want, stdout.String())
		}
	}
	stdout.Reset()
	if code := run([]string{"-replay", out + "/fib-nowa-w1-s7-selftest.bundle"}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "\nreproduced: vessel-leak: ") {
		t.Errorf("replay did not reproduce the planted leak:\n%s", stdout.String())
	}
}

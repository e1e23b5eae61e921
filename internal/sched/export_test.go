package sched

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BlockedLive exposes the derived blocked gauge to the external tests,
// which sample it mid-run far more densely than through Stats.
func BlockedLive(rt *Runtime) int64 { return rt.blockedLive() }

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this run")

// CheckGolden compares got with the golden file at path, or rewrites the
// file when the tests run with -update.
func CheckGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("%s differs from this run (rerun with -update if the change is intended):\n%s",
			path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ, position by
// position — a golden table has one row per case, so a change reads as
// the rows it moved.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&out, "- %s\n+ %s\n", wl, gl)
		}
	}
	return out.String()
}

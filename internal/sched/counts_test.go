package sched_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowa/internal/apps"
	"nowa/internal/blockapps"
	"nowa/internal/deque"
	"nowa/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule_counts.golden from this run")

// TestScheduleCounts pins every trace counter of each kernel at one
// worker to a golden table. With one token the schedule is a function
// of the seeds (DESIGN.md §12), so the counts are exact and a protocol
// change shows up as a diff of the table rather than as a wall-clock
// figure that host noise can hide. The twelve fork/join kernels run
// under both spawn modes, the two blocking kernels under SpawnEager
// only (they need it). Run with -update to rewrite the table.
func TestScheduleCounts(t *testing.T) {
	var buf bytes.Buffer
	row := func(b apps.Benchmark, mode sched.SpawnMode) {
		rt := sched.MustNew(sched.Config{Name: "nowa", Workers: 1, Deque: deque.CL, Join: sched.WaitFree, Spawn: mode})
		defer rt.Close()
		b.Prepare()
		rt.Run(b.Run)
		if err := b.Verify(); err != nil {
			t.Errorf("%s/%v: %v", b.Name(), mode, err)
		}
		fmt.Fprintf(&buf, "%s/%v %+v\n", b.Name(), mode, rt.Counters())
	}
	for _, mode := range []sched.SpawnMode{sched.SpawnEager, sched.SpawnAdaptive} {
		for _, b := range apps.All(apps.Test) {
			row(b, mode)
		}
	}
	for _, b := range blockapps.Blocking(apps.Test) {
		row(b, sched.SpawnEager)
	}

	golden := filepath.Join("testdata", "schedule_counts.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("schedule counts differ from %s (rerun with -update if the change is intended):\n%s",
			golden, lineDiff(string(want), buf.String()))
	}
}

// lineDiff lists the lines of want and got that differ, position by
// position — the table has one row per kernel and mode, so a protocol
// change reads as the rows it moved.
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

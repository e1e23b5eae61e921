package sched_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"nowa/internal/apps"
	"nowa/internal/blockapps"
	"nowa/internal/deque"
	"nowa/internal/sched"
)

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

	sched.CheckGolden(t, filepath.Join("testdata", "schedule_counts.golden"), buf.String())
}

// Command nowa-trace records a scheduler event trace of one benchmark run
// on the Nowa runtime and writes it in the Chrome trace event format
// (load the output in chrome://tracing or https://ui.perfetto.dev) — a
// visual rendering of the paper's Figure 4 strand-to-worker mappings on a
// real execution.
package main

import (
	"flag"
	"fmt"
	"os"

	"nowa/internal/apps"
	"nowa/internal/replay"
	"nowa/internal/sched"
	"nowa/internal/tracelog"
)

// ringCap is the per-worker event capacity: large enough that a
// test-scale kernel never wraps; a longer run keeps its newest events.
const ringCap = 1 << 20

func main() {
	benchName := flag.String("bench", "fib", "benchmark to trace")
	workers := flag.Int("workers", 4, "worker count")
	out := flag.String("o", "trace.json", "output file")
	scaleFlag := flag.String("scale", "test", "input scale: test, bench or large")
	flag.Parse()

	var scale apps.Scale
	switch *scaleFlag {
	case "test":
		scale = apps.Test
	case "bench":
		scale = apps.Bench
	case "large":
		scale = apps.Large
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleFlag))
	}
	b, err := apps.ByName(*benchName, scale)
	if err != nil {
		fatal(err)
	}

	rec := replay.NewTimedRecorder(*workers, ringCap)
	rt := sched.MustNew(sched.Config{
		Name:    "nowa",
		Workers: *workers,
		Record:  rec,
	})
	defer rt.Close()

	b.Prepare()
	rt.Run(b.Run)
	if err := b.Verify(); err != nil {
		fatal(err)
	}
	log := rec.Snapshot()

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tracelog.WriteChromeTrace(f, log); err != nil {
		fatal(err)
	}

	fmt.Printf("traced %s on %d workers: %d events -> %s\n\n", b.Name(), *workers, log.Total(), *out)
	fmt.Print(tracelog.FormatSummary(log))
	if log.Truncated() {
		fmt.Printf("\nrings wrapped (dropped %v): the trace and the summary cover the newest events only\n", log.Dropped)
		return
	}
	// The event stream and the counters are written side by side in the
	// scheduler; a disagreement means one of them lost an update.
	sum, cnt := tracelog.Summary(log), rt.Counters()
	for _, id := range tracelog.Derived() {
		if sum.Get(id) != cnt.Get(id) {
			fatal(fmt.Errorf("summary disagrees with the run's counters: %v events %d, counter %d", id, sum.Get(id), cnt.Get(id)))
		}
	}
	fmt.Println("\nsummary equals the run's counters")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nowa-trace:", err)
	os.Exit(1)
}

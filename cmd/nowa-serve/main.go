// Command nowa-serve runs the fault campaign (DESIGN.md §15): the same
// open-loop load against a serving runtime in three scenarios — clean
// baseline, injected worker stalls, and stalls with seize/supplement
// recovery — and writes the report as JSON.
//
//	nowa-serve -workers 4 -dur 1s
//
// It exits non-zero on any leak, unretired supplement, recovery run
// that never supplemented, or supplemented goodput below 80% of the baseline.
// Serving latency and overload behaviour are measured by the serve-*
// workloads of `bash benchmark/run.sh`, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nowa/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs passed in, so the tests can
// drive the command in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowa-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 4, "worker count per runtime")
	dur := fs.Duration("dur", time.Second, "generation time per scenario")
	jsonPath := fs.String("json", "torture-out/serve-faults.json", "report output path (empty to skip)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *workers < 1 || *dur <= 0 {
		fmt.Fprintln(stderr, "nowa-serve: want -workers >= 1, -dur > 0 and no positional arguments")
		return 2
	}

	fmt.Fprintln(stdout, "fault campaign:")
	rep := loadgen.FaultSweep(loadgen.FaultSweepConfig{
		Workers:  *workers,
		PointDur: *dur,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	leaks, degraded := loadgen.CheckFaultReport(rep)
	bad := append(leaks, degraded...)
	for _, msg := range bad {
		fmt.Fprintf(stderr, "  FAIL %s\n", msg)
	}

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			fmt.Fprintln(stderr, "nowa-serve:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if len(bad) > 0 {
		fmt.Fprintf(stderr, "nowa-serve: %d degradation/leak check(s) failed\n", len(bad))
		return 1
	}
	return 0
}

func writeReport(path string, rep loadgen.FaultReport) error {
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

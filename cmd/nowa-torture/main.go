// Command nowa-torture is the robustness soak driver: the flags of
// internal/torture, which holds the engine and says what it checks.
//
//	nowa-torture -duration 30s -out torture-out   # soak (exit 1 on failure)
//	nowa-torture -replay torture-out/x.bundle     # rerun a bundle's meta
//	nowa-torture -selftest                        # pipeline check against the
//	                                              # planted Chaos.LeakVessel bug
package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"nowa/internal/sched"
	"nowa/internal/torture"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs passed in, so the tests can
// drive the command in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowa-torture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	classes := torture.ClassNames()
	cfg := torture.Config{Stdout: stdout, Stderr: stderr}
	fs.DurationVar(&cfg.Duration, "duration", 30*time.Second, "soak duration")
	fs.Int64Var(&cfg.Seed, "seed", 1, "trial-matrix seed")
	fs.StringVar(&cfg.Out, "out", "torture-out", "directory for repro bundles")
	kernels := fs.String("kernels", "fib,integrate,quicksort,nqueens", "comma-separated kernel list (test scale)")
	variants := fs.String("variants", strings.Join(sched.Variants(), ","), "comma-separated variant list")
	chaos := fs.String("chaos", strings.Join(classes, ","),
		"comma-separated chaos classes the matrix may draw ("+strings.Join(classes, ", ")+")")
	fs.IntVar(&cfg.MaxWorkers, "workers", runtime.NumCPU(), "cap on trial worker counts")
	fs.IntVar(&cfg.RingCap, "ring", 1<<15, "per-worker recorder capacity (events)")
	replayPath := fs.String("replay", "", "rerun a bundle's configuration and seeds instead of soaking")
	selftest := fs.Bool("selftest", false, "validate the capture→rerun→shrink pipeline against the planted LeakVessel bug")
	fs.BoolVar(&cfg.Service, "service", false, "soak service mode instead of batch runs: concurrent submissions with mixed deadlines, panics and admission chaos, checking drain quiescence and accounting")
	fs.BoolVar(&cfg.Verbose, "v", false, "log every trial")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Lists split on commas; blanks around and between names drop out.
	list := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	}
	cfg.Kernels, cfg.Variants, cfg.Chaos = list(*kernels), list(*variants), list(*chaos)
	switch {
	case *replayPath != "":
		return torture.Replay(*replayPath, cfg)
	case *selftest:
		return torture.SelfTest(cfg)
	}
	return torture.Soak(cfg)
}

// Command benchmark is the repository's benchmark: six named workloads,
// end-to-end metrics on an untraced run and per-layer metrics on a traced
// one, all measured from outside the layers (see README.md).
//
//	benchmark -workload fj-fine -seed 1 -seconds 10 -trace 0   one run, one result line
//	benchmark [-trace] [-repeat]                               every workload, each in its own process
//	benchmark -workload layers                                 the layer ledger alone
//
// The last line of standard output of a single run is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeconds is a run's measuring time; BENCHMARK.json's run_seconds
// repeats it.
const defaultSeconds = 15

// resultLine is the contract with the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) resultLine() resultLine {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	return resultLine{Correct: r.correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: pick(defs, r.Values)}
}

// normaliseArgs lets the trace flag be written both ways: bare (-trace)
// and with a separate value (--trace 0, --trace 1), which the flag
// package does not accept for a boolean.
func normaliseArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "false":
				out = append(out, "-trace=false")
				i++
				continue
			case "1", "true":
				out = append(out, "-trace=true")
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "one workload, or \"layers\"; empty runs every workload in its own process")
	seed := fs.Int64("seed", 1, "workload seed: kernel order and arrival schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time of one run")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and a trace file")
	repeat := fs.Bool("repeat", false, "run the set twice and hold the two to the bounds in BENCHMARK.json")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for reports and trace files")
	commit := fs.String("commit", "unknown", "commit recorded in reports")
	fs.Parse(normaliseArgs(os.Args[1:]))
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q or non-positive -seconds\n", fs.Args())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, outDir: *out, commit: *commit}

	switch *name {
	case "":
		os.Exit(runSuite(cfg, *repeat))
	case "layers":
		cfg.trace = true // the ledger is per-layer: it prints the traced list
		rep := newReport("layers", cfg)
		runLedger(time.Duration(cfg.seconds*float64(time.Second)), rep)
		os.Exit(finish(cfg, rep))
	default:
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		os.Exit(finish(cfg, runWorkload(w, cfg)))
	}
}

// finish writes the full report for people, prints the result line for
// the driver and picks the exit code: 0 only for a correct run.
func finish(cfg config, rep *report) int {
	suffix := ".json"
	if rep.Trace {
		suffix = ".traced.json"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, rep.Workload+suffix), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	line := rep.resultLine()
	printSummary(rep, line)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// printSummary is the human-readable account on standard error.
func printSummary(rep *report, line resultLine) {
	e := os.Stderr
	fmt.Fprintf(e, "%s seed=%d seconds=%g trace=%v workers=%d: correct=%v valid=%v attempted=%d failed=%d samples=%d (spread %.1f%%) steal=%.1f%%\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host.Workers, line.Correct, rep.Valid, line.Attempted, line.Failed, rep.Samples, 100*rep.Spread, 100*rep.StealShare)
	for _, v := range rep.Violations {
		fmt.Fprintln(e, "  !", v)
	}
	if rep.Tail != "" {
		fmt.Fprintln(e, "  tail:", rep.Tail)
	}
	if rep.GenLag != nil {
		fmt.Fprintf(e, "  gen_lag: p50 %.1f us, p99 %.1f us, max %.1f us\n", rep.GenLag.P50Us, rep.GenLag.P99Us, rep.GenLag.MaxUs)
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if m := line.Metrics[n]; m.Value != 0 {
			fmt.Fprintf(e, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

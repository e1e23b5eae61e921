// Command nowa-bench measures the real (host) runtimes: it runs the
// Table I benchmarks on the selected runtime variants following the
// paper's methodology (§V) — R+1 runs with the first as warm-up, speedups
// against the arithmetic mean of the serial-elision runs, geometric-mean
// speedups with standard deviations.
//
// On hosts with few cores the speedups are naturally small; the
// 256-thread figures come from nowa-sim instead. This tool validates
// that the relative ordering holds on real hardware. Per-layer costs
// (spawn/sync, serving latency, blocking kernels) are measured by the
// repo benchmark, `bash benchmark/run.sh`, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nowa"
	"nowa/internal/apps"
	"nowa/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs passed in, so the tests can
// drive the command in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowa-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFlag := fs.String("bench", "", "comma-separated benchmark names (default: all)")
	variantsFlag := fs.String("variants", "nowa,nowa-the,fibril,cilkplus,tbb,libgomp,libomp-untied,libomp-tied", "comma-separated runtime variants")
	workersFlag := fs.String("workers", "", "comma-separated worker counts (default: 1,2,4,NumCPU)")
	runs := fs.Int("runs", 5, "measured runs per configuration (one extra warm-up run)")
	scaleFlag := fs.String("scale", "bench", "input scale: test, bench or large")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := tables(stdout, *benchFlag, *variantsFlag, *workersFlag, *scaleFlag, *runs); err != nil {
		fmt.Fprintln(stderr, "nowa-bench:", err)
		return 1
	}
	return 0
}

// tables prints one §V speedup table per selected benchmark.
func tables(w io.Writer, benchList, variantList, workerList, scaleName string, runs int) error {
	scale, err := parseScale(scaleName)
	if err != nil {
		return err
	}
	variants, err := parseVariants(variantList)
	if err != nil {
		return err
	}
	workers, err := parseWorkers(workerList)
	if err != nil {
		return err
	}
	benches := apps.Names()
	if benchList != "" {
		benches = strings.Split(benchList, ",")
	}

	fmt.Fprintf(w, "host: GOMAXPROCS=%d NumCPU=%d | runs=%d(+1 warm-up) scale=%s\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runs, scale)

	for _, name := range benches {
		b, err := apps.ByName(strings.TrimSpace(name), scale)
		if err != nil {
			return err
		}
		serialTimes, err := measure(b, nowa.Serial(), runs)
		if err != nil {
			return err
		}
		serial := stats.DurationsToSeconds(serialTimes)
		fmt.Fprintf(w, "%s (Ts = %.4f ± %.4f s)\n", b.Name(), stats.Mean(serial), stats.StdDev(serial))
		fmt.Fprintf(w, "  %-14s", "variant")
		for _, n := range workers {
			fmt.Fprintf(w, "  %12s", fmt.Sprintf("S(%d)", n))
		}
		fmt.Fprintln(w)
		for _, v := range variants {
			fmt.Fprintf(w, "  %-14s", v.String())
			for _, n := range workers {
				rt := nowa.New(v, n)
				times, err := measure(b, rt, runs)
				nowa.Close(rt)
				if err != nil {
					return err
				}
				sp, err := stats.Speedups(serial, stats.DurationsToSeconds(times))
				if err != nil {
					return err
				}
				sum := stats.Summarize(sp)
				fmt.Fprintf(w, "  %6.2f±%-5.2f", sum.GeoMean, sum.StdDev)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// measure runs b on rt runs+1 times (discarding the warm-up), verifying
// every run.
func measure(b apps.Benchmark, rt nowa.Runtime, runs int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, runs)
	for i := 0; i <= runs; i++ {
		b.Prepare()
		start := time.Now()
		rt.Run(b.Run)
		d := time.Since(start)
		if err := b.Verify(); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", b.Name(), rt.Name(), err)
		}
		if i > 0 {
			out = append(out, d)
		}
	}
	return out, nil
}

func parseScale(s string) (apps.Scale, error) {
	switch s {
	case "test":
		return apps.Test, nil
	case "bench":
		return apps.Bench, nil
	case "large":
		return apps.Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

func parseVariants(s string) ([]nowa.Variant, error) {
	byName := map[string]nowa.Variant{}
	for _, v := range nowa.Variants() {
		byName[v.String()] = v
	}
	var out []nowa.Variant
	for _, part := range strings.Split(s, ",") {
		v, ok := byName[strings.TrimSpace(part)]
		if !ok {
			return nil, fmt.Errorf("unknown variant %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseWorkers reads the -workers list; empty selects 1, 2, 4 and, on
// hosts with more than four CPUs, NumCPU.
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		ws := []int{1, 2, 4}
		if n := runtime.NumCPU(); n > 4 {
			ws = append(ws, n)
		}
		return ws, nil
	}
	var ws []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers value %q", part)
		}
		ws = append(ws, n)
	}
	return ws, nil
}

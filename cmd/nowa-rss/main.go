// Command nowa-rss regenerates Table II: the maximum resident stack-pool
// size of the Nowa runtime with and without the madvise() page-release
// technique (§V-B), using the real runtime's accounting stack pool.
//
// The paper reports whole-process RSS, which is dominated by benchmark
// data (matrices, arrays) identical across both configurations; the delta
// column — the only one madvise can affect — is what this tool measures
// directly: the peak resident bytes of the cactus stack pool.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"nowa/internal/apps"
	"nowa/internal/cactus"
	"nowa/internal/sched"
)

func main() {
	workers := flag.Int("workers", 8, "worker count")
	stackKiB := flag.Int("stack-kib", 64, "stack arena size in KiB")
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
		fmt.Fprintf(os.Stderr, "nowa-rss: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	if *workers > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(*workers)
	}
	fmt.Printf("== Table II: peak resident stack-pool bytes (Nowa, %d workers, %d KiB stacks) ==\n",
		*workers, *stackKiB)
	fmt.Printf("%-10s  %14s  %14s  %10s\n", "benchmark", "madvise OFF", "madvise ON", "delta")
	for _, name := range apps.Names() {
		var peaks [2]int64
		var madvised [2]int64
		for i, madvise := range []bool{false, true} {
			// The peak is schedule-dependent; take the max over a few
			// runs as a stable upper bound.
			for rep := 0; rep < 3; rep++ {
				b, err := apps.ByName(name, scale)
				if err != nil {
					fmt.Fprintln(os.Stderr, "nowa-rss:", err)
					os.Exit(1)
				}
				rt := sched.MustNew(sched.Config{
					Name:    "nowa",
					Workers: *workers,
					Stacks:  cactus.Config{Madvise: madvise, StackBytes: *stackKiB << 10},
				})
				b.Prepare()
				rt.Run(b.Run)
				if err := b.Verify(); err != nil {
					fmt.Fprintln(os.Stderr, "nowa-rss:", err)
					os.Exit(1)
				}
				st := rt.Stats().Stacks
				if st.PeakRSSBytes > peaks[i] {
					peaks[i] = st.PeakRSSBytes
				}
				madvised[i] += st.MadviseCalls
				rt.Close()
			}
		}
		fmt.Printf("%-10s  %12.1fKiB  %12.1fKiB  %8.1fKiB   (madvise calls: %d)\n",
			name, float64(peaks[0])/1024, float64(peaks[1])/1024,
			float64(peaks[1]-peaks[0])/1024, madvised[1])
	}
	fmt.Println("\nLower 'madvise ON' peaks reflect released suspended-stack pages;")
	fmt.Println("the paper's finding is that these savings are small while the")
	fmt.Println("performance cost (see nowa-bench / nowa-sim -fig 8) is large.")
}

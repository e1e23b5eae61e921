package blockapps

import (
	"context"
	"testing"
	"time"

	"nowa"
	"nowa/internal/apps"
)

var variants = []nowa.Variant{
	nowa.VariantNowa, nowa.VariantNowaTHE, nowa.VariantFibril, nowa.VariantCilkPlus,
}

// runKernel runs one blocking kernel on a fresh eager-spawn runtime of
// each variant and checks the result plus the wait-conservation
// invariant. requireBlock asserts the kernel actually parked a strand:
// structural for the pipeline (32 slots of buffer between 512 items and
// one consumer), but scheduling-dependent for BFS (one worker can drain
// a never-dry frontier alone).
func runKernel(t *testing.T, name string, requireBlock bool) {
	t.Helper()
	for _, v := range variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			b, err := ByName(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			rt := nowa.NewLimited(v, 4, nowa.Limits{Spawn: nowa.SpawnEager})
			defer nowa.Close(rt)
			b.Prepare()
			rt.Run(b.Run)
			if err := b.Verify(); err != nil {
				t.Fatal(err)
			}
			st, ok := nowa.Resources(rt)
			if !ok {
				t.Fatal("runtime reports no resources")
			}
			if requireBlock && st.BlockedWaits == 0 {
				t.Fatalf("%s: kernel never blocked — not exercising the wait protocol", name)
			}
			if st.BlockedWaits != st.ResumedWaits+st.AbortedWaits {
				t.Fatalf("wait conservation violated: blocked=%d resumed=%d aborted=%d",
					st.BlockedWaits, st.ResumedWaits, st.AbortedWaits)
			}
			if st.VesselsLeaked != 0 || st.StacksLeaked != 0 || st.ScopesLeaked != 0 {
				t.Fatalf("leaks: vessels=%d stacks=%d scopes=%d",
					st.VesselsLeaked, st.StacksLeaked, st.ScopesLeaked)
			}
		})
	}
}

func TestPipelineKernel(t *testing.T) { runKernel(t, "pipeline", true) }

func TestBFSKernel(t *testing.T) { runKernel(t, "bfs", false) }

// TestKernelSingleWorker pins one worker: liveness then depends entirely
// on the blocking layer's token handoff (a blocked strand must release
// the only token for its unblocker to run on).
func TestKernelSingleWorker(t *testing.T) {
	for _, name := range BlockingNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := ByName(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			rt := nowa.NewLimited(nowa.VariantNowa, 1, nowa.Limits{Spawn: nowa.SpawnEager})
			defer nowa.Close(rt)
			b.Prepare()
			rt.Run(b.Run)
			if err := b.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelAborted cancels mid-run: the kernels must unwind cleanly —
// every blocked strand aborted, nothing leaked — even though the result
// is (deliberately) incomplete.
func TestKernelAborted(t *testing.T) {
	for _, name := range BlockingNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := ByName(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			rt := nowa.NewLimited(nowa.VariantNowa, 4, nowa.Limits{Spawn: nowa.SpawnEager})
			defer nowa.Close(rt)
			b.Prepare()
			// A timeout short enough to land mid-run on most executions;
			// a run that finishes first is still a valid (clean) pass.
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
			defer cancel()
			_ = rt.RunCtx(ctx, b.Run)
			st, ok := nowa.Resources(rt)
			if !ok {
				t.Fatal("runtime reports no resources")
			}
			if st.BlockedWaits != st.ResumedWaits+st.AbortedWaits {
				t.Fatalf("wait conservation violated: blocked=%d resumed=%d aborted=%d",
					st.BlockedWaits, st.ResumedWaits, st.AbortedWaits)
			}
			if st.VesselsLeaked != 0 || st.StacksLeaked != 0 || st.ScopesLeaked != 0 {
				t.Fatalf("leaks: vessels=%d stacks=%d scopes=%d",
					st.VesselsLeaked, st.StacksLeaked, st.ScopesLeaked)
			}
		})
	}
}

// TestRegistry checks the suite bookkeeping stays out of apps.All.
func TestRegistry(t *testing.T) {
	if len(Blocking(apps.Test)) != len(BlockingNames()) {
		t.Fatal("Blocking and BlockingNames disagree")
	}
	for _, n := range BlockingNames() {
		if !IsBlocking(n) {
			t.Fatalf("IsBlocking(%q) = false", n)
		}
		if _, err := apps.ByName(n, apps.Test); err == nil {
			t.Fatalf("%q leaked into the fork/join suite", n)
		}
	}
	if IsBlocking("fib") {
		t.Fatal(`IsBlocking("fib") = true`)
	}
	if _, err := ByName("fib", apps.Test); err != nil {
		t.Fatalf("ByName fallback to apps failed: %v", err)
	}
	if _, err := ByName("nope", apps.Test); err == nil {
		t.Fatal("ByName accepted an unknown kernel")
	}
}

// BenchmarkBlockingKernels times both blocking kernels on the benchmark
// ledger's block-pipeline configuration (nowa, eager spawns, 2 workers)
// and prices the external wait: blocks/op is how many strands suspended
// per kernel run, ns/block the run time divided among them — nearly all
// a kernel here does is block. Re-read a suspension-path change with
//
//	go test -run '^$' -bench BlockingKernels -cpuprofile cpu.out ./internal/blockapps
func BenchmarkBlockingKernels(b *testing.B) {
	for _, name := range BlockingNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			k, err := ByName(name, apps.Bench)
			if err != nil {
				b.Fatal(err)
			}
			rt := nowa.NewLimited(nowa.VariantNowa, 2, nowa.Limits{Spawn: nowa.SpawnEager})
			defer nowa.Close(rt)
			k.Prepare()
			rt.Run(k.Run) // warm the vessel pool
			before, _ := nowa.Resources(rt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Prepare()
				rt.Run(k.Run)
			}
			b.StopTimer()
			if err := k.Verify(); err != nil {
				b.Fatal(err)
			}
			after, _ := nowa.Resources(rt)
			blocks := float64(after.BlockedWaits - before.BlockedWaits)
			b.ReportMetric(blocks/float64(b.N), "blocks/op")
			if blocks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/blocks, "ns/block")
			}
		})
	}
}

// Benchmark harness: the real-runtime benchmarks (BenchmarkFig*) run the
// Table I kernels on the actual runtimes and report wall time, which at
// low worker counts verifies the paper's orderings; then the
// micro-ablations. The 256-thread figures and Table III come from the
// simulator alone, through cmd/nowa-sim (-format csv for the
// machine-readable form).
package nowa_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"nowa"
	"nowa/internal/apps"
	"nowa/internal/cactus"
	"nowa/internal/core"
	"nowa/internal/deque"
	"nowa/internal/sched"
)

var realVariants = []nowa.Variant{
	nowa.VariantNowa, nowa.VariantNowaTHE, nowa.VariantFibril,
	nowa.VariantCilkPlus, nowa.VariantTBB, nowa.VariantLibGOMP,
	nowa.VariantLibOMPUntied, nowa.VariantLibOMPTied,
}

func benchWorkers() int {
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	return n
}

// benchReal runs one Table I kernel on one variant.
func benchReal(b *testing.B, name string, v nowa.Variant) {
	bm, err := apps.ByName(name, apps.Test)
	if err != nil {
		b.Fatal(err)
	}
	rt := nowa.New(v, benchWorkers())
	defer nowa.Close(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bm.Prepare()
		b.StartTimer()
		rt.Run(bm.Run)
	}
	b.StopTimer()
	if err := bm.Verify(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1_NQueens is Figure 1's workload on the real runtimes.
func BenchmarkFig1_NQueens(b *testing.B) {
	for _, v := range []nowa.Variant{nowa.VariantNowa, nowa.VariantFibril, nowa.VariantCilkPlus, nowa.VariantTBB} {
		v := v
		b.Run(v.String(), func(b *testing.B) { benchReal(b, "nqueens", v) })
	}
}

// BenchmarkFig7 runs the full Table I suite on the Figure 7 runtimes.
func BenchmarkFig7(b *testing.B) {
	for _, name := range apps.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			for _, v := range []nowa.Variant{nowa.VariantNowa, nowa.VariantFibril, nowa.VariantCilkPlus, nowa.VariantTBB} {
				v := v
				b.Run(v.String(), func(b *testing.B) { benchReal(b, name, v) })
			}
		})
	}
}

// BenchmarkFig8_Madvise compares the real Nowa runtime with and without
// the practical cactus-stack solution (§V-B): page release on stack
// recirculation and page faulting on reuse.
func BenchmarkFig8_Madvise(b *testing.B) {
	for _, madvise := range []bool{false, true} {
		madvise := madvise
		label := "off"
		if madvise {
			label = "on"
		}
		b.Run("madvise-"+label, func(b *testing.B) {
			for _, name := range []string{"fib", "nqueens", "integrate"} {
				name := name
				b.Run(name, func(b *testing.B) {
					bm, err := apps.ByName(name, apps.Test)
					if err != nil {
						b.Fatal(err)
					}
					rt := sched.MustNew(sched.Config{
						Name:    "nowa",
						Workers: benchWorkers(),
						Stacks:  cactus.Config{Madvise: madvise, StackBytes: 64 << 10},
					})
					defer rt.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						bm.Prepare()
						b.StartTimer()
						rt.Run(bm.Run)
					}
					b.StopTimer()
					if err := bm.Verify(); err != nil {
						b.Fatal(err)
					}
				})
			}
		})
	}
}

// BenchmarkFig9_Queue is the §V-C queue ablation on the real runtimes:
// the same wait-free protocol over the CL and THE queues, plus Fibril.
func BenchmarkFig9_Queue(b *testing.B) {
	for _, name := range []string{"fib", "nqueens"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for _, v := range []nowa.Variant{nowa.VariantNowa, nowa.VariantNowaTHE, nowa.VariantFibril} {
				v := v
				b.Run(v.String(), func(b *testing.B) { benchReal(b, name, v) })
			}
		})
	}
}

// BenchmarkFig10_OpenMP compares against the OpenMP-like runtimes.
func BenchmarkFig10_OpenMP(b *testing.B) {
	for _, name := range []string{"fib", "matmul", "quicksort"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for _, v := range []nowa.Variant{nowa.VariantNowa, nowa.VariantTBB, nowa.VariantLibGOMP, nowa.VariantLibOMPUntied, nowa.VariantLibOMPTied} {
				v := v
				b.Run(v.String(), func(b *testing.B) { benchReal(b, name, v) })
			}
		})
	}
}

// BenchmarkTable2_RSS reports the peak resident stack-pool bytes with and
// without madvise as custom metrics (peak_rss_bytes).
func BenchmarkTable2_RSS(b *testing.B) {
	for _, madvise := range []bool{false, true} {
		madvise := madvise
		label := "madvise-off"
		if madvise {
			label = "madvise-on"
		}
		b.Run(label, func(b *testing.B) {
			bm, err := apps.ByName("integrate", apps.Test)
			if err != nil {
				b.Fatal(err)
			}
			var peak int64
			for i := 0; i < b.N; i++ {
				rt := sched.MustNew(sched.Config{
					Workers: benchWorkers(),
					Stacks:  cactus.Config{Madvise: madvise, StackBytes: 64 << 10},
				})
				bm.Prepare()
				rt.Run(bm.Run)
				if p := rt.StackStats().PeakRSSBytes; p > peak {
					peak = p
				}
				rt.Close()
			}
			b.ReportMetric(float64(peak), "peak_rss_bytes")
		})
	}
}

// --- Micro-ablations -----------------------------------------------------

// BenchmarkDeque measures the raw deque operations per algorithm: the
// owner's push/pop round-trip (the per-spawn fast path).
func BenchmarkDeque(b *testing.B) {
	for _, alg := range []deque.Algorithm{deque.CL, deque.THE, deque.ABP, deque.Locked} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			d := deque.New[int](alg, 1<<16)
			x := 42
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.PushBottom(&x)
				d.PopBottom()
			}
		})
	}
}

// BenchmarkDequeSteal measures popTop throughput under concurrent thieves.
func BenchmarkDequeSteal(b *testing.B) {
	for _, alg := range []deque.Algorithm{deque.CL, deque.THE, deque.Locked} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			d := deque.New[int](alg, 1<<20)
			x := 42
			for i := 0; i < 1<<19; i++ {
				d.PushBottom(&x)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, ok := d.PopTop(); !ok {
						// Refill is owner-only; just spin on empty.
						continue
					}
				}
			})
		})
	}
}

// BenchmarkJoinCounter measures one fork/join round on the two protocols:
// the paper's core operation cost.
func BenchmarkJoinCounter(b *testing.B) {
	b.Run("wait-free", func(b *testing.B) {
		j := core.NewWaitFreeJoin()
		for i := 0; i < b.N; i++ {
			j.OnSteal()
			j.SyncBegin()
			j.OnChildJoin()
			j.Rearm()
		}
	})
	b.Run("locked", func(b *testing.B) {
		j := core.NewLockedJoin()
		for i := 0; i < b.N; i++ {
			j.OnSteal()
			j.SyncBegin()
			j.OnChildJoin()
			j.Rearm()
		}
	})
}

// BenchmarkSpawnOverhead measures the end-to-end cost of one spawn/sync
// round trip per runtime variant (the vessel-model substrate cost). The
// vessel-model variants get a second row, <variant>/record, with a
// schedule recorder attached: the difference between the two rows is
// what turning capture on costs per round trip (a few packed atomic
// stores into the replay ring). The nowa/depth24 row nests the round
// trips 24 scopes deep per iteration — each level opens a scope, spawns
// the next level and syncs, the shape of an inlined fib or nqueens spine
// — and reports ns per level: the scope stack past its inline slots.
func BenchmarkSpawnOverhead(b *testing.B) {
	roundTrips := func(b *testing.B, rt nowa.Runtime) {
		defer nowa.Close(rt)
		b.ReportAllocs()
		b.ResetTimer()
		rt.Run(func(c nowa.Ctx) {
			for i := 0; i < b.N; i++ {
				s := c.Scope()
				s.Spawn(func(nowa.Ctx) {})
				s.Sync()
			}
		})
	}
	for _, v := range realVariants {
		b.Run(v.String(), func(b *testing.B) { roundTrips(b, nowa.New(v, 1)) })
		if nowa.HasVesselModel(v) {
			b.Run(v.String()+"/record", func(b *testing.B) {
				rec := nowa.NewScheduleRecorder(1, 1<<12)
				roundTrips(b, nowa.NewInstrumented(v, 1, nowa.Instrument{Record: rec}))
			})
		}
	}
	b.Run("nowa/depth24", func(b *testing.B) {
		const depth = 24
		rt := nowa.New(nowa.VariantNowa, 1)
		defer nowa.Close(rt)
		b.ReportAllocs()
		rt.Run(func(c nowa.Ctx) {
			nestedRounds(c, depth) // grow the scope stack before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nestedRounds(c, depth)
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/depth, "ns/level")
	})
}

// nestedRounds runs depth nested scope/spawn/sync levels: every level
// spawns the next one down as its child, so under lazy promotion they
// all nest on one vessel's scope stack.
func nestedRounds(c nowa.Ctx, depth int) {
	if depth == 0 {
		return
	}
	s := c.Scope()
	s.Spawn(func(c nowa.Ctx) { nestedRounds(c, depth-1) })
	s.Sync()
}

// BenchmarkSyncOverhead measures one explicit Sync on a scope with no
// outstanding children — the no-steal sync fast path, which the paper's
// wait-free protocol makes nearly free (no atomic on the Nowa variants,
// a mutex round trip on the Fibril ones). The scope handle is reused
// across iterations, which the Scope contract permits as long as no new
// scope is opened on the strand in between.
func BenchmarkSyncOverhead(b *testing.B) {
	for _, v := range realVariants {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			rt := nowa.New(v, 1)
			defer nowa.Close(rt)
			b.ResetTimer()
			rt.Run(func(c nowa.Ctx) {
				s := c.Scope()
				for i := 0; i < b.N; i++ {
					s.Sync()
				}
			})
		})
	}
}

// BenchmarkChannel times one item through a Channel (ns/op is per item)
// in the four shapes the blocking layer meets: a strand sending to
// itself, where nothing ever waits; one producer and one consumer on two
// workers; four of each on one ring of eight cells, where both tickets
// are contended and strands sleep on both sides; and the BFS kernel's
// shape — eight strands that both take from and add to a ring large
// enough that no send waits.
func BenchmarkChannel(b *testing.B) {
	run := func(name string, workers int, body func(b *testing.B, c nowa.Ctx)) {
		b.Run(name, func(b *testing.B) {
			rt := nowa.NewLimited(nowa.VariantNowa, workers, nowa.Limits{Spawn: nowa.SpawnEager})
			defer nowa.Close(rt)
			b.ReportAllocs()
			b.ResetTimer()
			rt.Run(func(c nowa.Ctx) { body(b, c) })
		})
	}
	// through moves b.N items from the senders to the receivers; the
	// last sender to finish closes the channel.
	through := func(capacity, senders, receivers int) func(*testing.B, nowa.Ctx) {
		return func(b *testing.B, c nowa.Ctx) {
			ch := nowa.NewChannel[int](capacity)
			var sending atomic.Int32
			sending.Store(int32(senders))
			s := c.Scope()
			for i := 0; i < senders; i++ {
				n := b.N / senders
				if i == 0 {
					n += b.N % senders
				}
				s.Spawn(func(c nowa.Ctx) {
					for ; n > 0; n-- {
						ch.Send(c, n)
					}
					if sending.Add(-1) == 0 {
						ch.Close()
					}
				})
			}
			for i := 0; i < receivers; i++ {
				s.Spawn(func(c nowa.Ctx) {
					for _, err := ch.Recv(c); err == nil; _, err = ch.Recv(c) {
					}
				})
			}
			s.Sync()
		}
	}
	run("pair", 1, func(b *testing.B, c nowa.Ctx) {
		ch := nowa.NewChannel[int](8)
		for i := 0; i < b.N; i++ {
			ch.Send(c, i)
			ch.Recv(c)
		}
	})
	run("spsc", 2, through(8, 1, 1))
	run("mpmc4x4", benchWorkers(), through(8, 4, 4))
	run("bfs", benchWorkers(), func(b *testing.B, c nowa.Ctx) {
		// Nodes 0..b.N-1 of a binary tree: taking node v adds 2v+1 and
		// 2v+2, and whoever retires the last node closes the frontier.
		frontier := nowa.NewChannel[int](b.N + 1)
		var pending atomic.Int64
		pending.Store(int64(b.N))
		frontier.Send(c, 0)
		s := c.Scope()
		for w := 0; w < 8; w++ {
			s.Spawn(func(c nowa.Ctx) {
				for v, err := frontier.Recv(c); err == nil; v, err = frontier.Recv(c) {
					for child := 2*v + 1; child <= 2*v+2 && child < b.N; child++ {
						frontier.Send(c, child)
					}
					if pending.Add(-1) == 0 {
						frontier.Close()
					}
				}
			})
		}
		s.Sync()
	})
}

// BenchmarkParallelFor measures the combinator layer.
func BenchmarkParallelFor(b *testing.B) {
	rt := nowa.New(nowa.VariantNowa, benchWorkers())
	defer nowa.Close(rt)
	xs := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(c nowa.Ctx) {
			nowa.For(c, 0, len(xs), 0, func(_ nowa.Ctx, j int) { xs[j] += 1 })
		})
	}
}

var sinkFib int

// BenchmarkFibScaling reports fib wall time per worker count for the
// flagship runtime (the real-host scaling curve).
func BenchmarkFibScaling(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			rt := nowa.New(nowa.VariantNowa, w)
			defer nowa.Close(rt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(func(c nowa.Ctx) { sinkFib = benchFib(c, 20) })
			}
		})
	}
}

func benchFib(c nowa.Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a int
	s := c.Scope()
	s.Spawn(func(c nowa.Ctx) { a = benchFib(c, n-1) })
	bb := benchFib(c, n-2)
	s.Sync()
	return a + bb
}

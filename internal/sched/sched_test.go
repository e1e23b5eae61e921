package sched

import (
	"bytes"
	"fmt"
	"testing"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/deque"
	"nowa/internal/trace"
)

// variantConfigs returns the configurations of the named paper
// variants, all four when none is named, through the one variant table.
func variantConfigs(workers int, names ...string) []Config {
	if len(names) == 0 {
		names = Variants()
	}
	cfgs := make([]Config, len(names))
	for i, name := range names {
		cfg, err := VariantConfig(name, workers)
		if err != nil {
			panic(err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// allVariants returns fresh runtimes of every paper configuration.
func allVariants(workers int) []*Runtime {
	var rts []*Runtime
	for _, cfg := range variantConfigs(workers) {
		rts = append(rts, MustNew(cfg))
	}
	return rts
}

func fib(c api.Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a int
	s := c.Scope()
	s.Spawn(func(c api.Ctx) { a = fib(c, n-1) })
	b := fib(c, n-2)
	s.Sync()
	return a + b
}

func fibSerial(n int) int {
	if n < 2 {
		return n
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

func TestFibAllVariants(t *testing.T) {
	want := fibSerial(16)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, rt := range allVariants(workers) {
			rt := rt
			t.Run(rt.Name()+"/w="+itoa(workers), func(t *testing.T) {
				defer rt.Close()
				var got int
				rt.Run(func(c api.Ctx) { got = fib(c, 16) })
				if got != want {
					t.Fatalf("fib(16) = %d, want %d", got, want)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestSerialElisionAgreement(t *testing.T) {
	// The runtime must compute exactly what api.Serial computes.
	var wantResult int
	api.Serial{}.Run(func(c api.Ctx) { wantResult = fib(c, 15) })
	rt := NewNowa(4)
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 15) })
	if got != wantResult {
		t.Fatalf("parallel %d != serial %d", got, wantResult)
	}
}

func TestMultipleSyncRoundsPerScope(t *testing.T) {
	for _, rt := range allVariants(4) {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			defer rt.Close()
			total := 0
			rt.Run(func(c api.Ctx) {
				s := c.Scope()
				for round := 0; round < 20; round++ {
					partial := make([]int, 4)
					for i := 0; i < 4; i++ {
						i := i
						s.Spawn(func(c api.Ctx) { partial[i] = fib(c, 10) })
					}
					s.Sync()
					for _, p := range partial {
						total += p
					}
				}
			})
			want := 20 * 4 * fibSerial(10)
			if total != want {
				t.Fatalf("total = %d, want %d", total, want)
			}
		})
	}
}

func TestSyncWithoutSpawn(t *testing.T) {
	for _, rt := range allVariants(2) {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			defer rt.Close()
			ran := false
			rt.Run(func(c api.Ctx) {
				s := c.Scope()
				s.Sync() // must not block
				ran = true
			})
			if !ran {
				t.Fatal("root did not run")
			}
		})
	}
}

func TestRootWithoutScope(t *testing.T) {
	rt := NewNowa(4)
	defer rt.Close()
	ran := false
	rt.Run(func(c api.Ctx) { ran = true })
	if !ran {
		t.Fatal("root did not run")
	}
}

func TestDeepSpawnChain(t *testing.T) {
	// A degenerate chain: each level spawns exactly one child doing all
	// the work, so nearly every continuation is trivially resumable.
	for _, rt := range allVariants(4) {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			defer rt.Close()
			const depth = 2000
			var count int
			rt.Run(func(c api.Ctx) {
				count = chain(c, depth)
			})
			if count != depth {
				t.Fatalf("chain depth = %d, want %d", count, depth)
			}
		})
	}
}

func chain(c api.Ctx, n int) int {
	if n == 0 {
		return 0
	}
	var sub int
	s := c.Scope()
	s.Spawn(func(c api.Ctx) { sub = chain(c, n-1) })
	s.Sync()
	return sub + 1
}

func TestWideFlatSpawn(t *testing.T) {
	// One scope, many children: exercises many concurrent joiners on a
	// single hot join counter — the paper's contended case.
	for _, rt := range allVariants(8) {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			defer rt.Close()
			const n = 500
			results := make([]int, n)
			rt.Run(func(c api.Ctx) {
				s := c.Scope()
				for i := 0; i < n; i++ {
					i := i
					s.Spawn(func(c api.Ctx) { results[i] = i * i })
				}
				s.Sync()
			})
			for i, r := range results {
				if r != i*i {
					t.Fatalf("results[%d] = %d, want %d", i, r, i*i)
				}
			}
		})
	}
}

func TestRuntimeReuseAcrossRuns(t *testing.T) {
	rt := NewNowa(4)
	defer rt.Close()
	for i := 0; i < 5; i++ {
		var got int
		rt.Run(func(c api.Ctx) { got = fib(c, 12) })
		if want := fibSerial(12); got != want {
			t.Fatalf("run %d: fib(12) = %d, want %d", i, got, want)
		}
	}
}

func TestSingleWorkerNeverSteals(t *testing.T) {
	// Figure 3c semantics: with one worker the continuation is never
	// stolen, every spawn resolves via the popBottom fast path and no
	// suspension occurs.
	rt := NewNowa(1)
	defer rt.Close()
	rt.Run(func(c api.Ctx) { _ = fib(c, 12) })
	cnt := rt.Counters()
	if cnt.Steals != 0 {
		t.Errorf("Steals = %d, want 0 on one worker", cnt.Steals)
	}
	if cnt.Suspensions != 0 {
		t.Errorf("Suspensions = %d, want 0 on one worker", cnt.Suspensions)
	}
	if cnt.LocalResumes != cnt.Spawns-cnt.InlineRuns {
		t.Errorf("LocalResumes = %d, want == Spawns-InlineRuns = %d",
			cnt.LocalResumes, cnt.Spawns-cnt.InlineRuns)
	}
}

func TestChildFirstExecutionOrder(t *testing.T) {
	// Continuation stealing executes the spawned child before the
	// continuation when nothing is stolen (§II-B, Figure 3c).
	rt := NewNowa(1)
	defer rt.Close()
	var order []string
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(c api.Ctx) { order = append(order, "child") })
		order = append(order, "continuation")
		s.Sync()
	})
	if len(order) != 2 || order[0] != "child" || order[1] != "continuation" {
		t.Fatalf("execution order = %v, want [child continuation]", order)
	}
}

func TestCountersConservation(t *testing.T) {
	// Every spawn is resolved exactly once: inline (a lazy spawn that was
	// never promoted), by a local resume, or by a steal. Implicit syncs
	// correspond to stolen continuations plus the root's final pop.
	for _, rt := range allVariants(4) {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			defer rt.Close()
			rt.Run(func(c api.Ctx) { _ = fib(c, 14) })
			cnt := rt.Counters()
			if cnt.Spawns == 0 {
				t.Fatal("no spawns recorded")
			}
			if err := cnt.CheckQuiescent(); err != nil {
				t.Error(err)
			}
			// Each stolen continuation leaves one strand to implicit-sync;
			// the root adds exactly one more.
			if cnt.ImplicitSyncs != cnt.Steals+1 {
				t.Errorf("ImplicitSyncs(%d) != Steals(%d)+1", cnt.ImplicitSyncs, cnt.Steals)
			}
		})
	}
}

// TestEveryCounterSurfaces drives the scheduler's counter plumbing from
// the table: for every row, an increment batched on a vessel and flushed
// reaches Counters() in its own field alone and appears by name in
// DumpState.
func TestEveryCounterSurfaces(t *testing.T) {
	for id := trace.ID(0); id < trace.NumCounters; id++ {
		rt := NewNowa(2)
		v := &vessel{rt: rt}
		v.pend[id] = 3
		v.flushCounters(1)
		var p trace.Pending
		p[id] = 3
		want := p.Counters()
		if got := rt.Counters(); got != want {
			t.Errorf("%v: Counters() = %+v, want %+v", id, got, want)
		}
		var dump bytes.Buffer
		rt.DumpState(&dump)
		if line := fmt.Sprintf("%v:3", id); !bytes.Contains(dump.Bytes(), []byte(line)) {
			t.Errorf("%v: DumpState lacks %q:\n%s", id, line, dump.String())
		}
		rt.Close()
	}
}

func TestCilkPlusBoundedStacksCompletes(t *testing.T) {
	// A tiny stack bound must throttle stealing, never deadlock.
	rt, err := New(Config{
		Name:    "cilkplus-tiny",
		Workers: 4,
		Deque:   deque.THE,
		Join:    LockedFibril,
		Stacks:  cactus.Config{GlobalCap: 2, StackBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 14) })
	if want := fibSerial(14); got != want {
		t.Fatalf("fib(14) = %d, want %d", got, want)
	}
}

func TestMadviseModeCompletes(t *testing.T) {
	rt, err := New(Config{
		Name:    "nowa-madvise",
		Workers: 4,
		Deque:   deque.CL,
		Join:    WaitFree,
		Stacks:  cactus.Config{Madvise: true, StackBytes: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 15) })
	if want := fibSerial(15); got != want {
		t.Fatalf("fib(15) = %d, want %d", got, want)
	}
	st := rt.Stats().Stacks
	if st.MadviseCalls == 0 {
		t.Error("madvise mode ran but recorded no MadviseCalls")
	}
	if st.ResidentBytes != 0 {
		t.Errorf("ResidentBytes = %d after idle, want 0 in madvise mode", st.ResidentBytes)
	}
}

func TestFibrilRequiresTHE(t *testing.T) {
	if _, err := New(Config{Workers: 2, Deque: deque.CL, Join: LockedFibril}); err == nil {
		t.Fatal("LockedFibril with CL deque must be rejected")
	}
}

func TestConcurrentRunPanics(t *testing.T) {
	rt := NewNowa(2)
	defer rt.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		rt.Run(func(c api.Ctx) {
			close(started)
			<-release
		})
		close(firstDone)
	}()
	<-started
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second concurrent Run did not panic")
			}
			close(release)
		}()
		rt.Run(func(c api.Ctx) {})
	}()
	<-firstDone
}

func TestStackPoolRecirculates(t *testing.T) {
	rt := NewNowa(4)
	defer rt.Close()
	rt.Run(func(c api.Ctx) { _ = fib(c, 16) })
	st := rt.Stats().Stacks
	// All stacks must come home after the run.
	if st.ResidentBytes != st.Allocated*int64(rt.Config().Stacks.StackBytes) {
		t.Errorf("resident %d != allocated %d stacks × %d B",
			st.ResidentBytes, st.Allocated, rt.Config().Stacks.StackBytes)
	}
	if st.Allocated > 0 && st.LocalGets+st.GlobalGets == 0 && st.FreshGets > 64 {
		t.Errorf("pool never recirculated: %+v", st)
	}
}

func TestVariantNames(t *testing.T) {
	names := map[string]bool{}
	for _, rt := range allVariants(2) {
		names[rt.Name()] = true
		rt.Close()
	}
	for _, want := range []string{"nowa", "nowa-the", "fibril", "cilkplus"} {
		if !names[want] {
			t.Errorf("missing variant %q (have %v)", want, names)
		}
	}
}

func TestDefaultConfigName(t *testing.T) {
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Name() != "wait-free+CL" {
		t.Errorf("derived name = %q", rt.Name())
	}
}

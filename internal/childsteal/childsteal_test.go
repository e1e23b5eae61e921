package childsteal

import (
	"testing"

	"nowa/internal/api"
)

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

func mustNew(t *testing.T, name string, workers int) *Runtime {
	t.Helper()
	rt, err := New(name, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// rows builds every variant at the given worker count.
func rows(t *testing.T, workers int) []*Runtime {
	t.Helper()
	var rts []*Runtime
	for _, name := range Variants() {
		rts = append(rts, mustNew(t, name, workers))
	}
	return rts
}

func TestFib(t *testing.T) {
	want := fibSerial(16)
	for _, workers := range []int{1, 2, 4, 8} {
		rt := mustNew(t, "tbb", workers)
		var got int
		rt.Run(func(c api.Ctx) { got = fib(c, 16) })
		if got != want {
			t.Fatalf("workers=%d: fib(16) = %d, want %d", workers, got, want)
		}
	}
}

func TestFibAllRuntimes(t *testing.T) {
	want := fibSerial(14)
	for _, workers := range []int{1, 2, 4} {
		for _, rt := range rows(t, workers) {
			t.Run(rt.Name(), func(t *testing.T) {
				var got int
				rt.Run(func(c api.Ctx) { got = fib(c, 14) })
				if got != want {
					t.Fatalf("w=%d: fib(14) = %d, want %d", workers, got, want)
				}
			})
		}
	}
}

func TestAgreesWithSerial(t *testing.T) {
	var want int
	api.Serial{}.Run(func(c api.Ctx) { want = fib(c, 14) })
	rt := mustNew(t, "tbb", 4)
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, 14) })
	if got != want {
		t.Fatalf("parallel %d != serial %d", got, want)
	}
}

// TestNames: the variant table's names are the report names the public
// variants print, and anything else is refused.
func TestNames(t *testing.T) {
	want := []string{"tbb", "libgomp", "libomp-untied", "libomp-tied"}
	for i, rt := range rows(t, 1) {
		if rt.Name() != want[i] {
			t.Errorf("row %d is named %q, want %q", i, rt.Name(), want[i])
		}
	}
	if _, err := New("tbb-locked", 1, nil); err == nil {
		t.Error("an unknown variant name was accepted")
	}
}

func TestReverseLocalExecutionOrder(t *testing.T) {
	// §II-B / §V-A: child stealing executes forked-off functions in
	// reverse order locally. With one worker, spawned tasks run at Sync in
	// LIFO order.
	rt := mustNew(t, "tbb", 1)
	var order []int
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		for i := 0; i < 4; i++ {
			s.Spawn(func(c api.Ctx) { order = append(order, i) })
		}
		s.Sync()
	})
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestParentContinuesBeforeChild(t *testing.T) {
	// In child stealing the parent's continuation runs before the child
	// on the same worker — the opposite of continuation stealing.
	rt := mustNew(t, "tbb", 1)
	var order []string
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		s.Spawn(func(c api.Ctx) { order = append(order, "child") })
		order = append(order, "continuation")
		s.Sync()
	})
	if order[0] != "continuation" || order[1] != "child" {
		t.Fatalf("order = %v, want [continuation child]", order)
	}
}

func TestMultipleRounds(t *testing.T) {
	rt := mustNew(t, "tbb", 4)
	total := 0
	rt.Run(func(c api.Ctx) {
		s := c.Scope()
		for round := 0; round < 10; round++ {
			vals := make([]int, 8)
			for i := range vals {
				s.Spawn(func(c api.Ctx) { vals[i] = fib(c, 8) })
			}
			s.Sync()
			for _, v := range vals {
				total += v
			}
		}
	})
	if want := 10 * 8 * fibSerial(8); total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestWideSpawn(t *testing.T) {
	for _, rt := range rows(t, 4) {
		t.Run(rt.Name(), func(t *testing.T) {
			const n = 200
			results := make([]int, n)
			rt.Run(func(c api.Ctx) {
				s := c.Scope()
				for i := 0; i < n; i++ {
					s.Spawn(func(c api.Ctx) { results[i] = i * 2 })
				}
				s.Sync()
			})
			for i, r := range results {
				if r != i*2 {
					t.Fatalf("results[%d] = %d", i, r)
				}
			}
		})
	}
}

func TestNestedTaskwaits(t *testing.T) {
	// Nested scopes with interleaved syncs stress the tied-mode
	// restriction (waiting thread may only run its own tasks).
	for _, rt := range rows(t, 4) {
		t.Run(rt.Name(), func(t *testing.T) {
			var total int
			rt.Run(func(c api.Ctx) {
				total = nested(c, 4)
			})
			if want := nestedSerial(4); total != want {
				t.Fatalf("nested = %d, want %d", total, want)
			}
		})
	}
}

func nested(c api.Ctx, depth int) int {
	if depth == 0 {
		return 1
	}
	parts := make([]int, 3)
	s := c.Scope()
	for i := range parts {
		s.Spawn(func(c api.Ctx) { parts[i] = nested(c, depth-1) })
	}
	s.Sync()
	sum := 1
	for _, p := range parts {
		sum += p
	}
	return sum
}

func nestedSerial(depth int) int {
	if depth == 0 {
		return 1
	}
	sum := 1
	for i := 0; i < 3; i++ {
		sum += nestedSerial(depth - 1)
	}
	return sum
}

func TestRuntimeReuse(t *testing.T) {
	for _, rt := range rows(t, 2) {
		t.Run(rt.Name(), func(t *testing.T) {
			for i := 0; i < 5; i++ {
				var got int
				rt.Run(func(c api.Ctx) { got = fib(c, 10) })
				if want := fibSerial(10); got != want {
					t.Fatalf("run %d: got %d want %d", i, got, want)
				}
			}
		})
	}
}

func TestConcurrentRunPanics(t *testing.T) {
	for _, rt := range rows(t, 2) {
		t.Run(rt.Name(), func(t *testing.T) {
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
		})
	}
}

func TestCountersConservation(t *testing.T) {
	for _, rt := range rows(t, 4) {
		t.Run(rt.Name(), func(t *testing.T) {
			rt.Run(func(c api.Ctx) { _ = fib(c, 14) })
			cnt := rt.Counters()
			if cnt.Spawns == 0 {
				t.Fatal("no spawns recorded")
			}
			// Every spawned task executes exactly once: locally popped or stolen.
			if cnt.LocalResumes+cnt.Steals != cnt.Spawns {
				t.Errorf("LocalPops(%d) + Steals(%d) != Spawns(%d)",
					cnt.LocalResumes, cnt.Steals, cnt.Spawns)
			}
		})
	}
}

func TestGOMPCentralQueueContention(t *testing.T) {
	// Behavioural fingerprint: every libgomp scheduling action goes
	// through the central queue, so "steals" (queue takes) must equal
	// spawns — there is no local fast path at all.
	rt := mustNew(t, "libgomp", 4)
	rt.Run(func(c api.Ctx) { _ = fib(c, 12) })
	cnt := rt.Counters()
	if cnt.Spawns == 0 {
		t.Fatal("no spawns")
	}
	if cnt.Steals != cnt.Spawns {
		t.Errorf("central-queue takes (%d) != spawns (%d)", cnt.Steals, cnt.Spawns)
	}
	if cnt.LocalResumes != 0 {
		t.Errorf("libgomp has no local fast path, got %d local pops", cnt.LocalResumes)
	}
}

func TestOMPTiedNeverStealsAtTaskwait(t *testing.T) {
	// With one worker, a tied taskwait may only pop its own deque; steal
	// attempts would self-target and be visible in FailedSteals.
	rt := mustNew(t, "libomp-tied", 1)
	rt.Run(func(c api.Ctx) { _ = fib(c, 12) })
	cnt := rt.Counters()
	if cnt.Steals != 0 {
		t.Errorf("tied single-worker recorded %d steals", cnt.Steals)
	}
	if cnt.LocalResumes != cnt.Spawns {
		t.Errorf("local pops (%d) != spawns (%d)", cnt.LocalResumes, cnt.Spawns)
	}
}

package childsteal

import (
	"fmt"
	"sync/atomic"
	"testing"

	"nowa/internal/api"
	"nowa/internal/chaos"
)

// TestChaosChildSteal stresses every row's steal path under seeded fault
// injection (forced failed steals, pre-steal delays) and checks result
// correctness plus the task-accounting invariant: every published task is
// executed exactly once, by its owner or a thief.
func TestChaosChildSteal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, name := range Variants() {
				t.Run(name, func(t *testing.T) {
					rt, err := New(name, 4, &chaos.Chaos{Seed: seed, StealFail: 64, StealDelay: 64, DelaySpins: 8})
					if err != nil {
						t.Fatal(err)
					}
					var got int
					rt.Run(func(c api.Ctx) { got = fib(c, 16) })
					if got != 987 {
						t.Fatalf("fib(16) = %d, want 987", got)
					}
					// Wide flat spawn: stresses FIFO steals against LIFO pops.
					var sum atomic.Int64
					rt.Run(func(c api.Ctx) {
						s := c.Scope()
						for i := 1; i <= 200; i++ {
							s.Spawn(func(api.Ctx) { sum.Add(int64(i)) })
						}
						s.Sync()
					})
					if sum.Load() != 20100 {
						t.Fatalf("sum = %d, want 20100", sum.Load())
					}
					c := rt.Counters()
					if c.LocalResumes+c.Steals != c.Spawns {
						t.Fatalf("LocalResumes(%d)+Steals(%d) != Spawns(%d)",
							c.LocalResumes, c.Steals, c.Spawns)
					}
				})
			}
		})
	}
}

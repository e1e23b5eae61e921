// Package sched is the continuation-stealing runtime system of the
// reproduction: randomized work-stealing workers, one deque per worker,
// continuations published when a thief asks for them (lazy promotion,
// below) or at every spawn under SpawnEager, the popBottom fast path,
// and implicit/explicit sync handled by a pluggable join protocol — the
// wait-free Nowa protocol or the lock-based Fibril baseline (§III, §IV).
//
// # The vessel model
//
// Go cannot steal native stack continuations, so strands execute on pooled
// goroutines called vessels, and workers are reified as tokens: exactly
// one strand holds worker w's token at any time, and "running on worker w"
// means holding token w. An eager Spawn publishes the parent's vessel as
// the continuation in deque[w], hands token w to a fresh vessel that runs
// the child, and parks the parent. The protocol-visible behaviour matches
// the paper exactly:
//
//   - child-first execution order on the spawning worker;
//   - one stealable continuation per spawning function, no allocation per
//     spawn (the continuation slot lives in the vessel);
//   - popBottom hit after the child returns ⇒ the continuation was not
//     stolen and the worker proceeds (vessel handoff, token unchanged);
//   - popBottom miss ⇒ implicit sync: tryResume on the parent scope, then
//     work stealing;
//   - a thief that steals a continuation increments α and becomes the main
//     path, resuming the parked vessel with the thief's token.
//
// Token migration reproduces the real worker's movement precisely, so the
// deque-per-worker contents equal the real runtime's: the continuations of
// the frames on the worker's current execution path, outermost at the top.
//
// # Lazy vessel promotion
//
// The eager handoff costs two goroutine switches per spawn — the ~290 ns
// floor of the vessel model. Under lazy promotion (the default, see
// Config.Spawn) Spawn instead loads its token's steal-demand word and,
// finding no demand, runs the child inline on the parent's vessel,
// publishing nothing. A thief that finds a deque empty sets the demand
// word of that slot; the owner's next spawn answers it with the full
// eager handoff, publishing a real continuation, and arms an eager burst
// for the spawns after it. A strand on the vessel suspending arms the
// burst too. The no-steal steady state touches nothing but its own
// vessel and one read-mostly word, and never switches goroutines. See
// DESIGN.md §14 for the demand handshake and why losing or duplicating
// a demand is sound.
package sched

import (
	"fmt"
	"strings"
	"time"

	"nowa/internal/cactus"
	"nowa/internal/chaos"
	"nowa/internal/deque"
)

// JoinKind selects the strand-coordination protocol.
type JoinKind int

const (
	// WaitFree is the Nowa protocol of §IV.
	WaitFree JoinKind = iota
	// LockedFibril is the Fibril baseline: frame mutex coupled with the
	// victim deque lock during steals (Listing 2). Requires the THE deque.
	LockedFibril
)

// String returns the protocol name.
func (k JoinKind) String() string {
	if k == WaitFree {
		return "wait-free"
	}
	return "locked"
}

// SpawnMode selects how Spawn maps a child onto vessels.
type SpawnMode int

const (
	// SpawnAdaptive (the default) spawns lazily — the child runs inline
	// on the parent's vessel and nothing is published while the token's
	// steal-demand word is clear — and falls back to eager bursts on the
	// vessel whenever a thief posts demand on the token or a strand on
	// the vessel suspends, so steal-heavy and blocking-prone phases
	// converge to the eager behaviour on their own.
	SpawnAdaptive SpawnMode = iota
	// SpawnEager always pays the full vessel handoff per spawn: the
	// pre-promotion behaviour, and the semantics lazy spawning must stay
	// equivalent to. Required when a child blocks on a signal that only
	// the parent's continuation can provide (see the deviation note on
	// scope.Spawn).
	SpawnEager
)

// String names the spawn mode.
func (m SpawnMode) String() string {
	switch m {
	case SpawnAdaptive:
		return "adaptive"
	case SpawnEager:
		return "eager"
	}
	return fmt.Sprintf("SpawnMode(%d)", int(m))
}

// Config parameterises a Runtime.
type Config struct {
	// Name labels the variant in reports (defaults to a derived name).
	Name string
	// Workers is the number of worker tokens (default 1).
	Workers int
	// Deque selects the work-stealing queue algorithm: CL (the default)
	// or THE.
	Deque deque.Algorithm
	// Join selects the coordination protocol (default WaitFree).
	Join JoinKind
	// Spawn selects the child-mapping strategy (default SpawnAdaptive:
	// lazy vessel promotion with adaptive eager bursts).
	Spawn SpawnMode
	// Stacks configures the cactus stack pool. Workers and PerWorkerCap
	// are filled in automatically; set GlobalCap for the Cilk Plus bounded
	// mode and Madvise for the §V-B page-release experiment.
	Stacks cactus.Config
	// Seed seeds the per-worker steal RNGs (default 1).
	Seed int64
	// Chaos, if non-nil, enables seeded fault injection at the protocol's
	// race windows (see chaos.Chaos). The only cost when nil is one
	// predictable branch per injection point.
	Chaos *chaos.Chaos
	// StallThreshold, if positive, arms stall recovery: for the duration
	// of each run, a stall ticker samples per-worker
	// heartbeats (bumped on every steal-loop pass, park/wake and strand
	// finish) and, when a worker's heartbeat stays stale for
	// StallThreshold while runnable work exists, marks the worker seized
	// and dispatches a supplemental worker on slot Workers+w so the run
	// keeps its effective parallelism. The supplement retires once the
	// seized worker's strand returns to the scheduler (a CAS on the
	// worker's stall word) and its own deque is empty. Zero disables
	// recovery entirely — the default, and the zero-cost path: no
	// heartbeats are written and no stall row is armed.
	StallThreshold time.Duration
}

// dequeCap is every deque's initial capacity.
const dequeCap = 256

func (c *Config) fill() error {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deque != deque.CL && c.Deque != deque.THE {
		return fmt.Errorf("sched: unsupported deque %v (want CL or THE)", c.Deque)
	}
	if c.Join == LockedFibril && c.Deque != deque.THE {
		return fmt.Errorf("sched: the Fibril protocol requires the THE deque (its lock couples with the frame lock); got %v", c.Deque)
	}
	if c.Spawn != SpawnAdaptive && c.Spawn != SpawnEager {
		return fmt.Errorf("sched: unknown spawn mode %v", c.Spawn)
	}
	if c.StallThreshold < 0 {
		c.StallThreshold = 0
	}
	// The slots and the stack caches are sized for base workers plus
	// supplemental slots, so a supplement's owner-only accesses index
	// real storage.
	c.Stacks.Workers = c.totalSlots()
	if c.Stacks.StackBytes <= 0 {
		c.Stacks.StackBytes = 16 << 10
	}
	if c.Chaos != nil {
		// A copy, so normalisation never mutates the caller's struct.
		c.Chaos = c.Chaos.WithDefaults(c.Seed)
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s+%s", c.Join, c.Deque)
	}
	return nil
}

// totalSlots is the number of scheduling slots: the base worker tokens
// plus, when stall recovery is armed, one supplement slot per worker —
// slot Workers+w belongs to worker w's supplement.
func (c *Config) totalSlots() int {
	if c.StallThreshold > 0 {
		return 2 * c.Workers
	}
	return c.Workers
}

// variants is the one table of the paper's four continuation-stealing
// runtimes: the flagship (wait-free join on the lock-free CL deque,
// §IV-C's synergy), the §V-C ablation (wait-free join on the partially
// locked THE deque), the lock-based Fibril baseline (THE deque plus the
// coupled deque/frame locking of Listing 2), and the Cilk Plus-like
// variant (Fibril with a stack pool bounded at stackCap per worker —
// workers stop stealing when the bound is reached, §II-C).
var variants = []struct {
	name     string
	deque    deque.Algorithm
	join     JoinKind
	stackCap int
}{
	{"nowa", deque.CL, WaitFree, 0},
	{"nowa-the", deque.THE, WaitFree, 0},
	{"fibril", deque.THE, LockedFibril, 0},
	{"cilkplus", deque.THE, LockedFibril, 8},
}

// Variants lists the names VariantConfig knows, in evaluation order.
func Variants() []string {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	return names
}

// VariantConfig maps a variant name onto its scheduler configuration:
// the only place the four names are given a deque, a join protocol and
// a stack bound.
func VariantConfig(name string, workers int) (Config, error) {
	for _, v := range variants {
		if v.name == name {
			return Config{Name: name, Workers: workers, Deque: v.deque, Join: v.join,
				Stacks: cactus.Config{GlobalCap: v.stackCap * workers}}, nil
		}
	}
	return Config{}, fmt.Errorf("unknown variant %q (want %s)", name, strings.Join(Variants(), ", "))
}

// NewNowa returns a runtime of the flagship variant.
func NewNowa(workers int) *Runtime {
	cfg, _ := VariantConfig("nowa", workers)
	return MustNew(cfg)
}

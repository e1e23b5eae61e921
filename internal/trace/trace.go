// Package trace provides low-overhead per-worker event counters for the
// scheduler. Each worker mutates only its own padded counter block, so
// counting adds no cache-line contention of its own; Aggregate folds the
// blocks into a snapshot. The cells are atomics — still uncontended on
// the write side because each block has exactly one writer — so that
// diagnostic readers (Counters, DumpState) may snapshot mid-run without
// a data race.
//
// Every counter is declared once: an ID constant and its row of table.
// Blocks, pending batches, aggregation and the Counters snapshot are all
// loops over that table, so adding a counter is one ID, one row and one
// Counters field. The two stack-get fields are the exception: the stack
// pool already counts them, so they have no ID and the runtime's
// Counters copies the pool's tallies in.
package trace

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// ID names one counter: the index of its cell in a WorkerCounters block
// or a pending batch, and of its row in the table.
type ID int

const (
	Spawns ID = iota
	InlineSpawns
	InlineRuns
	PromotedSpawns
	LocalResumes
	Steals
	FailedSteals
	ImplicitSyncs
	ExplicitSyncs
	Suspensions
	ThiefParks
	ThiefWakeups
	InterestSignals
	BlockedWaits
	ResumedWaits
	AbortedWaits
	WakeupsLost
	DirectHandoffs
	NumCounters
)

// table is the one declaration of the counter set: each row's name and
// its field's offset in the Counters snapshot.
var table = [NumCounters]struct {
	name  string
	field uintptr
}{
	Spawns:          {"Spawns", unsafe.Offsetof(Counters{}.Spawns)},
	InlineSpawns:    {"InlineSpawns", unsafe.Offsetof(Counters{}.InlineSpawns)},
	InlineRuns:      {"InlineRuns", unsafe.Offsetof(Counters{}.InlineRuns)},
	PromotedSpawns:  {"PromotedSpawns", unsafe.Offsetof(Counters{}.PromotedSpawns)},
	LocalResumes:    {"LocalResumes", unsafe.Offsetof(Counters{}.LocalResumes)},
	Steals:          {"Steals", unsafe.Offsetof(Counters{}.Steals)},
	FailedSteals:    {"FailedSteals", unsafe.Offsetof(Counters{}.FailedSteals)},
	ImplicitSyncs:   {"ImplicitSyncs", unsafe.Offsetof(Counters{}.ImplicitSyncs)},
	ExplicitSyncs:   {"ExplicitSyncs", unsafe.Offsetof(Counters{}.ExplicitSyncs)},
	Suspensions:     {"Suspensions", unsafe.Offsetof(Counters{}.Suspensions)},
	ThiefParks:      {"ThiefParks", unsafe.Offsetof(Counters{}.ThiefParks)},
	ThiefWakeups:    {"ThiefWakeups", unsafe.Offsetof(Counters{}.ThiefWakeups)},
	InterestSignals: {"InterestSignals", unsafe.Offsetof(Counters{}.InterestSignals)},
	BlockedWaits:    {"BlockedWaits", unsafe.Offsetof(Counters{}.BlockedWaits)},
	ResumedWaits:    {"ResumedWaits", unsafe.Offsetof(Counters{}.ResumedWaits)},
	AbortedWaits:    {"AbortedWaits", unsafe.Offsetof(Counters{}.AbortedWaits)},
	WakeupsLost:     {"WakeupsLost", unsafe.Offsetof(Counters{}.WakeupsLost)},
	DirectHandoffs:  {"DirectHandoffs", unsafe.Offsetof(Counters{}.DirectHandoffs)},
}

// String returns the counter's name, which is also its Counters field.
func (id ID) String() string { return table[id].name }

// Counters is a plain snapshot of event tallies, as returned by
// Aggregate.
type Counters struct {
	Spawns          int64 // Spawn calls executed on this worker
	InlineSpawns    int64 // Spawns degraded to inline execution (cancelled run)
	InlineRuns      int64 // lazy spawns committed to inline execution (no handoff paid)
	PromotedSpawns  int64 // lazy spawns promoted to the eager handoff (claim, interest fold or suspension)
	LocalResumes    int64 // popBottom hits: continuation not stolen
	Steals          int64 // successful popTop operations
	FailedSteals    int64 // empty, lost-race or chaos-failed popTop operations
	ImplicitSyncs   int64 // popBottom misses: continuation was stolen
	ExplicitSyncs   int64 // Sync calls
	Suspensions     int64 // parent parked at an explicit sync point
	StackLocalGets  int64 // stacks served from a per-worker buffer: no ID, the runtime copies cactus.Stats.LocalGets in
	StackGlobalGets int64 // stacks served from the global pool: likewise, cactus.Stats.GlobalGets
	ThiefParks      int64 // idle thieves parked after the fail threshold
	ThiefWakeups    int64 // parked thieves woken by a spawn, finish or cancel
	InterestSignals int64 // thief-side steal-demand posts that landed on a token's demand word
	BlockedWaits    int64 // strand suspensions on an external wait (future/channel/barrier)
	ResumedWaits    int64 // external waits that ended in a resume
	AbortedWaits    int64 // external waits that ended in a cancellation
	WakeupsLost     int64 // thief parks declined because an external wakeup was pending
	DirectHandoffs  int64 // blocking strands that passed their token straight to a slot or queued wakeup (their own included), no thief vessel in between
}

// cell addresses the field of c that the counter's row names.
func (c *Counters) cell(id ID) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(c), table[id].field))
}

// Pending is a strand's batch of not yet published increments, indexed
// by ID. Plain adds: only the strand's own goroutine touches it.
type Pending [NumCounters]int64

// Counters is the one conversion from cells to the named-field struct.
func (p *Pending) Counters() Counters {
	var c Counters
	for id := range table {
		*c.cell(ID(id)) = p[id]
	}
	return c
}

// Get reads one counter of the snapshot by ID.
func (c Counters) Get(id ID) int64 { return *c.cell(id) }

// WorkerCounters is one worker's live tally block, indexed by ID. Each
// cell is mutated only by the strand holding that worker's token, so the
// atomic adds are uncontended; atomicity exists for concurrent
// diagnostic readers.
type WorkerCounters [NumCounters]atomic.Int64

// Flush publishes a strand's pending batch into the block, one atomic
// add per nonzero cell, and clears the batch.
func (w *WorkerCounters) Flush(p *Pending) {
	for id, n := range p {
		if n != 0 {
			w[id].Add(n)
			p[id] = 0
		}
	}
}

// paddedCounters rounds a block up to the next multiple of 128 bytes —
// two cache lines, covering the adjacent-line prefetcher — whatever
// NumCounters is, so adjacent workers' blocks never share such a unit.
type paddedCounters struct {
	WorkerCounters
	_ [128 - unsafe.Sizeof(WorkerCounters{})%128]byte
}

// The constant underflows (a compile error) unless that arithmetic holds.
const _ uintptr = -(unsafe.Sizeof(paddedCounters{}) % 128)

// Recorder holds one counter block per worker.
type Recorder struct {
	blocks []paddedCounters
}

// NewRecorder creates a recorder for n workers.
func NewRecorder(n int) *Recorder {
	return &Recorder{blocks: make([]paddedCounters, n)}
}

// Worker returns worker w's counter block for direct mutation.
func (r *Recorder) Worker(w int) *WorkerCounters {
	return &r.blocks[w].WorkerCounters
}

// Live is the gauge Σin − Σout1 − Σout2 over all blocks, every out cell
// read before any in cell: when each out is published after its in, the
// result never reads below the events begun and not ended across the
// read. It reads high by unpublished outs and is exact at quiescence.
func (r *Recorder) Live(in, out1, out2 ID) int64 {
	var n int64
	for i := range r.blocks {
		n -= r.blocks[i].WorkerCounters[out1].Load() + r.blocks[i].WorkerCounters[out2].Load()
	}
	for i := range r.blocks {
		n += r.blocks[i].WorkerCounters[in].Load()
	}
	return n
}

// Aggregate sums all worker blocks. The sum is exact when workers are
// quiescent and a race-free approximate snapshot otherwise.
func (r *Recorder) Aggregate() Counters {
	var p Pending
	for i := range r.blocks {
		for id := range p {
			p[id] += r.blocks[i].WorkerCounters[id].Load()
		}
	}
	return p.Counters()
}

// CheckQuiescent states the conservation identities that hold whenever
// no Run is in flight, and names the first one the snapshot violates.
// Every eagerly published continuation was popped back or stolen (an
// inline commit publishes none), every external wait ended exactly
// once, and every parked thief was woken.
func (c Counters) CheckQuiescent() error {
	if c.LocalResumes+c.Steals != c.Spawns-c.InlineRuns {
		return fmt.Errorf("LocalResumes(%d)+Steals(%d) != Spawns(%d)-InlineRuns(%d)",
			c.LocalResumes, c.Steals, c.Spawns, c.InlineRuns)
	}
	if c.BlockedWaits != c.ResumedWaits+c.AbortedWaits {
		return fmt.Errorf("BlockedWaits(%d) != ResumedWaits(%d)+AbortedWaits(%d)",
			c.BlockedWaits, c.ResumedWaits, c.AbortedWaits)
	}
	if c.ThiefParks != c.ThiefWakeups {
		return fmt.Errorf("ThiefParks(%d) != ThiefWakeups(%d)", c.ThiefParks, c.ThiefWakeups)
	}
	return nil
}

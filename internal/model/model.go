// Package model is an explicit-state model checker for the strand-
// coordination protocols of the paper, in the spirit of the model-checking
// work it cites (§II-D, Norris & Demsky's CDSChecker).
//
// It exhaustively enumerates every interleaving of the worker/thief race
// of §III-C for a bounded number of spawns and verifies:
//
//   - the sync point releases exactly once per computation,
//   - it releases only after every spawned child has finished,
//   - every maximal execution terminates with a release (no lost wakeup).
//
// Three protocol variants are modelled:
//
//   - ProtoNaive: the straw man with separate, non-atomic queue and
//     counter operations. The checker FINDS the §III-C race: a joiner can
//     observe a spurious zero between a thief's popTop and its counter
//     increment, releasing the sync point prematurely (or twice).
//   - ProtoLocked: the Fibril fix — each queue operation is fused with its
//     counter update, as the coupled deque/frame locks of Listing 2
//     enforce. The checker proves the bounded model safe.
//   - ProtoWaitFree: the Nowa transformation — the counter starts at
//     I_max, joiners decrement blindly, and the explicit sync point
//     restores N_r with one atomic subtraction (Eq. 5). All operations
//     stay separate and non-blocking; the checker proves the bounded
//     model safe anyway, which is exactly the paper's claim that the
//     hazardous race has become benign.
//
// The model mirrors the runtime's structure: a single worker executes the
// main path, which publishes one continuation per spawn; one child strand
// races one dedicated thief for each continuation; the continuation chain
// serialises spawns exactly as continuation stealing does (the next spawn
// happens only after the previous continuation was consumed and resumed).
package model

import (
	"fmt"
	"strings"
)

// Proto selects the modelled protocol.
type Proto int

const (
	// ProtoWaitFree is the Nowa protocol.
	ProtoWaitFree Proto = iota
	// ProtoLocked is the Fibril protocol (fused queue+counter steps).
	ProtoLocked
	// ProtoNaive is the broken protocol with the §III-C race.
	ProtoNaive
)

// String names the protocol.
func (p Proto) String() string {
	if names := [...]string{"wait-free", "locked", "naive"}; p >= 0 && int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("Proto(%d)", int(p))
}

// iMax stands in for the counter datatype's maximal value; any value
// larger than the number of strands in the model is faithful.
const iMax = 1 << 20

// Config bounds the model.
type Config struct {
	// Spawns is the number of spawn statements in the spawning function
	// (each with a dedicated racing thief).
	Spawns int
	// Proto is the protocol under test.
	Proto Proto
}

// Result of a check.
type Result struct {
	// States is the number of distinct states explored.
	States int
	// Executions is the number of maximal interleavings examined.
	Executions int
	// Violation describes the first property violation found, nil if the
	// bounded model is safe.
	Violation *Violation
}

// Violation is a counterexample.
type Violation struct {
	// Kind is the violated property.
	Kind string
	// Trace is the step sequence leading to the violation.
	Trace []string
}

func (v *Violation) String() string {
	return v.Kind + ":\n  " + strings.Join(v.Trace, "\n  ")
}

// --- state ---------------------------------------------------------------

// Thread roles: 0 = main path; 1..S = children; S+1..2S = thieves.
type state struct {
	pc       []int8
	cont     int8 // continuation currently published (-1: none)
	counter  int64
	alpha    int64
	syncing  bool // main suspended at the explicit sync point
	resume   bool // pending resume token for the main path
	released int8 // number of sync-release events
	// consumedBy records who took each continuation: 0 none, 1 child
	// (pop hit), 2 thief (steal).
	consumedBy []int8
}

func (s *state) clone() *state {
	ns := *s
	ns.pc = append([]int8(nil), s.pc...)
	ns.consumedBy = append([]int8(nil), s.consumedBy...)
	return &ns
}

// key encodes the state for the visited set.
func (s *state) key() string { return fmt.Sprint(*s) }

// Main-path program counters. For spawn i the main path is at 2i (push)
// then 2i+1 (wait for resume). After all spawns: publish, restore/check,
// wait-release, done.
func (c Config) mainPush(pc int8) (int, bool) {
	if int(pc) < 2*c.Spawns && pc%2 == 0 {
		return int(pc) / 2, true
	}
	return 0, false
}

func (c Config) mainWait(pc int8) (int, bool) {
	if int(pc) < 2*c.Spawns && pc%2 == 1 {
		return int(pc) / 2, true
	}
	return 0, false
}

func (c Config) pcPublish() int8  { return int8(2 * c.Spawns) }
func (c Config) pcCheck() int8    { return int8(2*c.Spawns + 1) }
func (c Config) pcWaitRel() int8  { return int8(2*c.Spawns + 2) }
func (c Config) pcMainDone() int8 { return int8(2*c.Spawns + 3) }

// Child program counters: 0 = pop (hit resumes; miss joins), 1 = done.
// For ProtoNaive the miss path splits: 1 = decrement+check, 2 = done.
// Thief program counters: 0 = steal-or-abandon, 1 = increment (wait-free,
// naive), 2 = resume, 3 = done. For ProtoLocked the steal fuses the
// increment: 0 = steal, 2 = resume, 3 = done.

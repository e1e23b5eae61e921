package model

import "fmt"

// Parker micro-step model: the one-word rendezvous of
// internal/sched/parker.go — the state word plus the capacity-1 wake
// channel — decomposed into its individual shared-memory accesses and
// exhaustively interleaved between the owner (await) and one deliverer
// per round (deliver). The await spin budget is a parameter because the
// scheduler runs the same body with two: parkerSpins on the spawn/sync
// ladder and 0 for external waits, which park at once.
//
// Rounds are chained the way the runtime chains them: round r+1's
// deliverer comes into existence only through something the owner does
// after consuming round r (freeing its vessel, publishing a
// continuation, registering a wait), so it is enabled once the owner has
// reset the word for round r and not before.
//
// Checked properties:
//
//   - no lost delivery: the owner finishes every round (an execution
//     that ends with the owner blocked on the wake channel is a
//     violation);
//   - no double consume: the owner's reset always overwrites ready, and
//     at the end the word is idle and the channel empty;
//   - deliver never blocks: the wake channel is empty whenever a
//     deliverer sends;
//   - the consume-side reset is a plain store, which is only sound if
//     the round's deliverer is entirely done with the parker by then and
//     so cannot overwrite it: checked at every reset.

// ParkerConfig is a bounded parker scenario.
type ParkerConfig struct {
	// Spins is the owner's await spin budget: the number of yielding
	// polls of the word before it commits to blocking. 0 parks at once.
	Spins int
	// Rounds is the number of deliveries, each by its own deliverer.
	Rounds int
	// BuggyBlindWait makes the owner store waiting unconditionally
	// instead of CASing idle→waiting — the lost-delivery bug the CAS
	// exists to exclude, which the checker must catch (validating its
	// sensitivity).
	BuggyBlindWait bool
}

const (
	pkIdle int8 = iota
	pkWaiting
	pkReady
)

// Owner program counters within a round, and deliverer ones.
const (
	ownPoll  int8 = iota // spin poll, or the idle→waiting CAS once the budget is spent
	ownRecv              // blocked on <-wake
	ownReset             // plain store of idle: the consume
)

const (
	delSwap int8 = iota // swap the word to ready
	delSend             // the swap displaced waiting: send on wake
	delDone
)

// pkstate is the full shared + per-thread state; comparable, so it is
// its own key in the visited set.
type pkstate struct {
	word  int8
	ch    int8 // tokens in the wake channel (capacity 1)
	round int8 // owner's current round; == Rounds when done
	opc   int8
	spins int8 // polls left in this round's budget
	dpc   int8 // pc of the current round's deliverer
}

func (s *pkstate) clone() *pkstate { ns := *s; return &ns }

// CheckParker exhaustively explores the scenario.
func CheckParker(cfg ParkerConfig) Result {
	if cfg.Rounds < 1 {
		cfg.Rounds = 2
	}
	return explore(&pkstate{spins: int8(cfg.Spins)}, rules[*pkstate, pkstate]{
		key: func(s *pkstate) pkstate { return *s }, steps: cfg.enabled, atEnd: cfg.checkTerminal,
	})
}

func (c ParkerConfig) checkTerminal(s *pkstate) string {
	switch {
	case int(s.round) < c.Rounds:
		return fmt.Sprintf("lost delivery: owner stuck in round %d at pc %d with nothing left to wake it", s.round, s.opc)
	case s.word != pkIdle || s.ch != 0:
		return fmt.Sprintf("leftover event at quiescence: word %d, %d wake tokens", s.word, s.ch)
	}
	return ""
}

func (c ParkerConfig) enabled(s *pkstate) []step[*pkstate] {
	if int(s.round) >= c.Rounds {
		return nil
	}
	var out []step[*pkstate]
	if t, ok := c.ownerStep(s); ok {
		out = append(out, t)
	}
	if t, ok := c.delivererStep(s); ok {
		out = append(out, t)
	}
	return out
}

// Owner micro-program, one round of await(spins):
//
//	ownPoll   spins > 0: load word; ready → ownReset, else spins--
//	          spins = 0: CAS idle→waiting; ok → ownRecv, else → ownReset
//	ownRecv   <-wake (enabled only when the channel holds a token)
//	ownReset  plain store word = idle → next round
func (c ParkerConfig) ownerStep(s *pkstate) (step[*pkstate], bool) {
	switch s.opc {
	case ownPoll:
		if s.spins > 0 {
			return try(s, "owner: poll word", func(ns *pkstate) string {
				if ns.word == pkReady {
					ns.opc = ownReset
				} else {
					ns.spins--
				}
				return ""
			}), true
		}
		if c.BuggyBlindWait {
			return try(s, "owner: store waiting (blind)", func(ns *pkstate) string {
				ns.word = pkWaiting
				ns.opc = ownRecv
				return ""
			}), true
		}
		return try(s, "owner: CAS idle→waiting", func(ns *pkstate) string {
			if ns.word == pkIdle {
				ns.word = pkWaiting
				ns.opc = ownRecv
			} else {
				ns.opc = ownReset
			}
			return ""
		}), true
	case ownRecv:
		if s.ch == 0 {
			return step[*pkstate]{}, false
		}
		return try(s, "owner: <-wake", func(ns *pkstate) string {
			ns.ch = 0
			ns.opc = ownReset
			return ""
		}), true
	default:
		return try(s, "owner: store idle (consume)", func(ns *pkstate) string {
			if ns.word != pkReady {
				return fmt.Sprintf("double consume: round %d reset a word holding %d, not ready", ns.round, ns.word)
			}
			if ns.dpc != delDone {
				return fmt.Sprintf("plain reset raced: round %d's deliverer is still at pc %d", ns.round, ns.dpc)
			}
			ns.word = pkIdle
			ns.round++
			ns.opc = ownPoll
			ns.spins = int8(c.Spins)
			ns.dpc = delSwap // the owner's next actions create the next deliverer
			return ""
		}), true
	}
}

// Deliverer micro-program: swap the word to ready; only when that
// displaced waiting, send on the wake channel.
func (c ParkerConfig) delivererStep(s *pkstate) (step[*pkstate], bool) {
	switch s.dpc {
	case delSwap:
		return try(s, "deliverer: swap word to ready", func(ns *pkstate) string {
			old := ns.word
			ns.word = pkReady
			switch old {
			case pkReady:
				return fmt.Sprintf("two events in flight: round %d's swap found the word already ready", ns.round)
			case pkWaiting:
				ns.dpc = delSend
			default:
				ns.dpc = delDone
			}
			return ""
		}), true
	case delSend:
		return try(s, "deliverer: wake <- token", func(ns *pkstate) string {
			if ns.ch != 0 {
				return fmt.Sprintf("deliver would block: round %d's send found the wake channel full", ns.round)
			}
			ns.ch = 1
			ns.dpc = delDone
			return ""
		}), true
	}
	return step[*pkstate]{}, false
}

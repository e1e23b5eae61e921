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

// pkstate is the full shared + per-thread state; comparable, so it keys
// the visited set directly.
type pkstate struct {
	word  int8
	ch    int8 // tokens in the wake channel (capacity 1)
	round int8 // owner's current round; == Rounds when done
	opc   int8
	spins int8 // polls left in this round's budget
	dpc   int8 // pc of the current round's deliverer
}

type pktrans struct {
	name  string
	apply func(*pkstate) *Violation
}

// CheckParker exhaustively explores the scenario.
func CheckParker(cfg ParkerConfig) DequeResult {
	if cfg.Rounds < 1 {
		cfg.Rounds = 2
	}
	e := &parkerExplorer{cfg: cfg, visited: map[pkstate]bool{}}
	e.dfs(pkstate{spins: int8(cfg.Spins)}, nil)
	return DequeResult{States: len(e.visited), Executions: e.executions, Violation: e.violation}
}

type parkerExplorer struct {
	cfg        ParkerConfig
	visited    map[pkstate]bool
	executions int
	violation  *Violation
}

func (e *parkerExplorer) dfs(s pkstate, trace []string) {
	if e.violation != nil || e.visited[s] {
		return
	}
	e.visited[s] = true
	ts := e.enabled(s)
	if len(ts) == 0 {
		e.executions++
		e.violation = e.checkTerminal(s, trace)
		return
	}
	for _, t := range ts {
		ns := s
		step := append(trace, t.name)
		if v := t.apply(&ns); v != nil {
			v.Trace = copyTrace(step)
			e.violation = v
			return
		}
		e.dfs(ns, step)
		if e.violation != nil {
			return
		}
	}
}

func (e *parkerExplorer) checkTerminal(s pkstate, trace []string) *Violation {
	switch {
	case int(s.round) < e.cfg.Rounds:
		return &Violation{Kind: fmt.Sprintf("lost delivery: owner stuck in round %d at pc %d with nothing left to wake it", s.round, s.opc), Trace: copyTrace(trace)}
	case s.word != pkIdle || s.ch != 0:
		return &Violation{Kind: fmt.Sprintf("leftover event at quiescence: word %d, %d wake tokens", s.word, s.ch), Trace: copyTrace(trace)}
	}
	return nil
}

func (e *parkerExplorer) enabled(s pkstate) []pktrans {
	if int(s.round) >= e.cfg.Rounds {
		return nil
	}
	var out []pktrans
	if t, ok := e.ownerStep(s); ok {
		out = append(out, t)
	}
	if t, ok := e.delivererStep(s); ok {
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
func (e *parkerExplorer) ownerStep(s pkstate) (pktrans, bool) {
	switch s.opc {
	case ownPoll:
		if s.spins > 0 {
			return pktrans{"owner: poll word", func(ns *pkstate) *Violation {
				if ns.word == pkReady {
					ns.opc = ownReset
				} else {
					ns.spins--
				}
				return nil
			}}, true
		}
		if e.cfg.BuggyBlindWait {
			return pktrans{"owner: store waiting (blind)", func(ns *pkstate) *Violation {
				ns.word = pkWaiting
				ns.opc = ownRecv
				return nil
			}}, true
		}
		return pktrans{"owner: CAS idle→waiting", func(ns *pkstate) *Violation {
			if ns.word == pkIdle {
				ns.word = pkWaiting
				ns.opc = ownRecv
			} else {
				ns.opc = ownReset
			}
			return nil
		}}, true
	case ownRecv:
		if s.ch == 0 {
			return pktrans{}, false
		}
		return pktrans{"owner: <-wake", func(ns *pkstate) *Violation {
			ns.ch = 0
			ns.opc = ownReset
			return nil
		}}, true
	default:
		return pktrans{"owner: store idle (consume)", func(ns *pkstate) *Violation {
			if ns.word != pkReady {
				return &Violation{Kind: fmt.Sprintf("double consume: round %d reset a word holding %d, not ready", ns.round, ns.word)}
			}
			if ns.dpc != delDone {
				return &Violation{Kind: fmt.Sprintf("plain reset raced: round %d's deliverer is still at pc %d", ns.round, ns.dpc)}
			}
			ns.word = pkIdle
			ns.round++
			ns.opc = ownPoll
			ns.spins = int8(e.cfg.Spins)
			ns.dpc = delSwap // the owner's next actions create the next deliverer
			return nil
		}}, true
	}
}

// Deliverer micro-program: swap the word to ready; only when that
// displaced waiting, send on the wake channel.
func (e *parkerExplorer) delivererStep(s pkstate) (pktrans, bool) {
	switch s.dpc {
	case delSwap:
		return pktrans{"deliverer: swap word to ready", func(ns *pkstate) *Violation {
			old := ns.word
			ns.word = pkReady
			switch old {
			case pkReady:
				return &Violation{Kind: fmt.Sprintf("two events in flight: round %d's swap found the word already ready", ns.round)}
			case pkWaiting:
				ns.dpc = delSend
			default:
				ns.dpc = delDone
			}
			return nil
		}}, true
	case delSend:
		return pktrans{"deliverer: wake <- token", func(ns *pkstate) *Violation {
			if ns.ch != 0 {
				return &Violation{Kind: fmt.Sprintf("deliver would block: round %d's send found the wake channel full", ns.round)}
			}
			ns.ch = 1
			ns.dpc = delDone
			return nil
		}}, true
	}
	return pktrans{}, false
}

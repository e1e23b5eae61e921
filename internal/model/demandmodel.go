package model

import "fmt"

// Steal-demand handshake model: the Runtime.demand word one owner polls at
// each lazy spawn, two thieves posting on it, and the idle parker (waiters
// count, mutex, broadcast) the posts must compose with — internal/sched's
// spawnLazy, postDemand, takeDemand, parkThief, wakeThieves. A step is one
// shared-memory access; the owner's load-then-clear pairs are one step
// each, since no post can land on a set word.
//
//	thief  scan (steal a published continuation, else post) → lock,
//	       waiters++ → re-scan (decline if published) → post → wait
//	owner  per spawn: poll → inline | clear, publish → load waiters →
//	       broadcast under the mutex → child strand starts on the token
//	       (clear) → pop → next spawn (after a hit the parent's, after a
//	       steal whatever strand the token runs next)
//
// Checked: no reachable state has a continuation published, a thief
// parked, none still looking and no broadcast pending; the owner honours
// no more posts than landed; a post it honours landed since the last
// strand start on its token.

// DemandConfig is a bounded scenario: two thieves, one owner, Spawns
// spawns. BuggyLateAdd moves waiters++ from before the re-scan to after
// the park-time post, so an owner answering that post can read zero
// waiters while the thief is past its last look at the deque — the lost
// wakeup the real order excludes, which the checker must find.
type DemandConfig struct {
	Spawns       int
	BuggyLateAdd bool
}

const ( // thief pcs, then owner pcs
	dtScan int8 = iota
	dtLock
	dtRescan
	dtPost
	dtWait
	dtParked
	dtDone
	doPoll
	doPublish
	doWake
	doBcast
	doStart
	doPop
	doDone
)

type dmstate struct {
	word, deque, waiters, mu int8 // mu: idle.mu held by a thief
	opc, spawn               int8
	tpc                      [2]int8
	landed, honoured         int8
	gen, postGen             int8 // ghost: strand starts on the owner's token; the one the standing post landed in
	stale                    bool // ghost: the owner honoured a post from before the last strand start
}

func (s *dmstate) clone() *dmstate { ns := *s; return &ns }

// CheckDemand exhaustively explores the scenario.
func CheckDemand(cfg DemandConfig) Result {
	if cfg.Spawns < 1 {
		cfg.Spawns = 3
	}
	return explore(&dmstate{opc: doPoll}, rules[*dmstate, dmstate]{
		key: func(s *dmstate) dmstate { return *s }, inState: checkDemandState,
		atEnd: func(*dmstate) string { return "" },
		steps: func(s *dmstate) []step[*dmstate] {
			return append(append(cfg.ownerSteps(s), cfg.thiefSteps(s, 0)...), cfg.thiefSteps(s, 1)...)
		},
	})
}

func checkDemandState(s *dmstate) string {
	parked, looking := 0, 0
	for _, pc := range s.tpc {
		if pc == dtParked {
			parked++
		} else if pc != dtDone {
			looking++
		}
	}
	switch {
	case s.deque == 1 && parked > 0 && looking == 0 && s.opc != doWake && s.opc != doBcast:
		return "lost wakeup: a continuation is published, every thief is parked and no broadcast is pending"
	case s.honoured > s.landed:
		return fmt.Sprintf("post honoured twice: %d promotions for %d landed posts", s.honoured, s.landed)
	case s.stale:
		return "stale demand honoured: the post predates the last strand start on the token"
	}
	return ""
}

func (s *dmstate) post() {
	if s.word == 0 {
		s.word, s.postGen = 1, s.gen
		s.landed++
	}
}

// ownerSteps: each case names the step, the pc it leads to unless f picks
// another, and f's effect.
func (c DemandConfig) ownerSteps(s *dmstate) []step[*dmstate] {
	own := func(name string, next int8, f func(*dmstate)) []step[*dmstate] {
		return []step[*dmstate]{after(s, "owner: "+name, func(ns *dmstate) { ns.opc = next; f(ns) })}
	}
	nextSpawn := func(ns *dmstate) {
		if ns.spawn++; int(ns.spawn) == c.Spawns {
			ns.opc = doDone
		}
	}
	switch s.opc {
	case doPoll:
		if s.word == 0 {
			return own("poll demand: none, run the child inline", doPoll, nextSpawn)
		}
		return own("poll demand: clear it, promote", doPublish, func(ns *dmstate) {
			ns.word, ns.stale = 0, ns.postGen != ns.gen
			ns.honoured++
		})
	case doPublish:
		return own("publish continuation", doWake, func(ns *dmstate) { ns.deque = 1 })
	case doWake:
		if s.waiters > 0 {
			return own("load waiters: some", doBcast, func(*dmstate) {})
		}
		return own("load waiters: none", doStart, func(*dmstate) {})
	case doBcast:
		if s.mu != 0 {
			return nil
		}
		return own("broadcast under idle.mu", doStart, func(ns *dmstate) {
			for t, pc := range ns.tpc {
				if pc == dtParked { // wakes, retakes idle.mu, waiters--
					ns.tpc[t] = dtScan
					ns.waiters--
				}
			}
		})
	case doStart:
		return own("child strand starts: drop demand", doPop, func(ns *dmstate) { ns.word = 0; ns.gen++ })
	case doPop:
		return own("pop bottom", doPoll, func(ns *dmstate) { ns.deque = 0; nextSpawn(ns) })
	}
	return nil
}

func (c DemandConfig) thiefSteps(s *dmstate, t int) []step[*dmstate] {
	th := func(name string, next int8, f func(*dmstate)) []step[*dmstate] {
		return []step[*dmstate]{after(s, fmt.Sprintf("thief %d: %s", t, name), func(ns *dmstate) { ns.tpc[t] = next; f(ns) })}
	}
	early, late := int8(1), int8(0) // where waiters++ happens: at the real site, or at the planted one
	if c.BuggyLateAdd {
		early, late = 0, 1
	}
	switch pc := s.tpc[t]; {
	case pc == dtScan && s.deque == 1:
		return th("steal", dtDone, func(ns *dmstate) { ns.deque = 0 })
	case pc == dtScan:
		return th("find the deque empty, post demand", dtLock, (*dmstate).post)
	case pc == dtLock && s.mu == 0:
		return th("lock idle.mu (waiters++)", dtRescan, func(ns *dmstate) { ns.mu = 1; ns.waiters += early })
	case pc == dtRescan && s.deque == 1:
		return th("re-scan finds work, decline to park", dtScan, func(ns *dmstate) { ns.mu = 0; ns.waiters -= early })
	case pc == dtRescan:
		return th("re-scan finds nothing", dtPost, func(*dmstate) {})
	case pc == dtPost:
		return th("post demand before sleeping", dtWait, (*dmstate).post)
	case pc == dtWait:
		return th("wait (releases idle.mu)", dtParked, func(ns *dmstate) { ns.mu = 0; ns.waiters += late })
	}
	return nil
}

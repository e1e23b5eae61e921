package model

import (
	"fmt"
	"slices"
)

// Steal-demand and idle-queue handshake model: the Runtime.demand word one
// owner polls at each lazy spawn, two thieves posting on it, and the
// cqs.Queue they sleep on — internal/sched's lazy Spawn, postDemand,
// takeDemand, parkThief, wakeThief. A step is one shared-memory access,
// but for three groups the other side cannot tell apart: the owner's
// load-then-clear of the word (no post lands on a set word), its Waiting
// loads plus dequeue-ticket claim (it is the only resumer), its claim of a
// waiter cell plus the parker delivery (a thief reads its parker only once
// it waits). The queue is the tickets no resumer has resolved yet, oldest
// first: a thief's live ticket, whose cell state is kept with the thief,
// or an aborted cell.
//
//	thief  scan (steal, else post) → claim a ticket → register (a deposit
//	       means already woken) → re-scan → abort the ticket (lost to the
//	       resumer: consume its delivery) | post, await the parker
//	owner  per spawn: poll → inline | clear, publish → Waiting? claim a
//	       ticket → resolve its cell (deposit | deliver | aborted: look
//	       again) → child strand starts on the token (clear) → pop
//
// Checked: no reachable state has a continuation published, a thief
// asleep, none looking and no resume in flight — a second publication
// beside a second sleeper wakes it, whatever the first one's ticket went
// to; the owner honours no more posts than landed, and none from before
// the last strand start on its token.

// DemandConfig is the scenario: two thieves, one owner, three spawns.
// BuggyLateAdd moves the thief's re-scan in front of its ticket: an owner
// that publishes in between finds nobody Waiting while the thief is past
// its last look at the deque — the lost wakeup the checker must find.
type DemandConfig struct{ BuggyLateAdd bool }

const ( // thief pcs, then owner pcs
	dtScan int8 = iota
	dtTicket
	dtRegister
	dtRescan
	dtAbort
	dtPost
	dtAwait
	dtDone
	doPoll
	doPublish
	doWaiting
	doCell
	doStart
	doPop
	doDone
)

const ( // live cell states, then queue entries (a live ticket is 1 + its thief)
	dcEmpty int8 = iota
	dcDeposit
	dcWaiter
	dcTaken
	dqAborted = 3
	dqLen     = 8 // per thief a live ticket and an aborted one per publication
	dmSpawns  = 3
)

type dmstate struct {
	word, deque, opc, spawn        int8
	tpc                            [2]int8
	queue                          [dqLen]int8 // unclaimed tickets, oldest first; 0 past the last
	cell                           [2]int8     // each thief's live cell
	ready                          [2]bool     // a parker delivery is in for the thief
	landed, honoured, gen, postGen int8        // ghost: posts landed and answered; strand starts on the owner's token, the one the standing post landed in
	stale                          bool        // ghost: the owner honoured a post from before the last strand start
}

func (s *dmstate) clone() *dmstate { ns := *s; return &ns }

// CheckDemand exhaustively explores the scenario.
func CheckDemand(cfg DemandConfig) Result {
	return explore(&dmstate{opc: doPoll}, rules[*dmstate, dmstate]{
		key: func(s *dmstate) dmstate { return *s }, inState: checkDemandState,
		atEnd: func(*dmstate) string { return "" },
		steps: func(s *dmstate) []step[*dmstate] {
			return append(append(cfg.ownerSteps(s), cfg.thiefSteps(s, 0)...), cfg.thiefSteps(s, 1)...)
		},
	})
}

func checkDemandState(s *dmstate) string {
	blind := func(t int) bool { return s.tpc[t] == dtDone || s.tpc[t] == dtAwait && !s.ready[t] } // gone, or asleep
	switch {
	case s.deque == 1 && blind(0) && blind(1) && s.tpc != [2]int8{dtDone, dtDone} && s.opc != doWaiting && s.opc != doCell:
		return "lost wakeup: a continuation is published, every thief is asleep and no resume is in flight"
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

func (c DemandConfig) ownerSteps(s *dmstate) []step[*dmstate] {
	nextSpawn := func(ns *dmstate) {
		if ns.spawn++; ns.spawn == dmSpawns {
			ns.opc = doDone
		}
	}
	pop := func(ns *dmstate) { copy(ns.queue[:], append(ns.queue[1:], 0)) }
	opc, head := s.opc, s.queue[0]
	t := head >> 1 & 1 // the thief whose ticket is next, if it is a live one
	return firstOf(s, "owner: ", func(ns *dmstate) *int8 { return &ns.opc }, []row[*dmstate]{
		{opc == doPoll && s.word == 0, "poll demand: none, run the child inline", doPoll, nextSpawn},
		{opc == doPoll, "poll demand: clear it, promote", doPublish, func(ns *dmstate) {
			ns.word, ns.stale = 0, ns.postGen != ns.gen
			ns.honoured++
		}},
		{opc == doPublish, "publish continuation", doWaiting, func(ns *dmstate) { ns.deque = 1 }},
		{opc == doWaiting && head == 0, "load Waiting: nobody", doStart, func(*dmstate) {}},
		{opc == doWaiting, "load Waiting: somebody, claim a dequeue ticket", doCell, func(*dmstate) {}},
		{opc == doCell && head == dqAborted, "resolve the cell: aborted, look again", doWaiting, pop},
		{opc == doCell && s.cell[t] == dcEmpty, "resolve the cell: deposit", doStart, func(ns *dmstate) { pop(ns); ns.cell[t] = dcDeposit }},
		{opc == doCell, "resolve the cell: claim its waiter, deliver", doStart, func(ns *dmstate) { pop(ns); ns.cell[t], ns.ready[t] = dcTaken, true }},
		{opc == doStart, "child strand starts: drop demand", doPop, func(ns *dmstate) { ns.word = 0; ns.gen++ }},
		{opc == doPop, "pop bottom", doPoll, func(ns *dmstate) { ns.deque = 0; nextSpawn(ns) }},
	})
}

func (c DemandConfig) thiefSteps(s *dmstate, t int) []step[*dmstate] {
	// The re-scan stands behind the registration, a hit aborting the ticket
	// — or (planted) in front of the ticket, registration going on to the post.
	scanned, registered, hit, miss := dtTicket, dtRescan, dtAbort, dtPost
	if c.BuggyLateAdd {
		scanned, registered, hit, miss = dtRescan, dtPost, dtScan, dtTicket
	}
	pc, me, cell := s.tpc[t], int8(1+t), s.cell[t]
	return firstOf(s, fmt.Sprintf("thief %d: ", t), func(ns *dmstate) *int8 { return &ns.tpc[t] }, []row[*dmstate]{
		{pc == dtScan && s.deque == 1, "steal", dtDone, func(ns *dmstate) { ns.deque = 0 }},
		{pc == dtScan, "find the deque empty, post demand", scanned, (*dmstate).post},
		{pc == dtTicket, "claim a ticket", dtRegister, func(ns *dmstate) { ns.queue[slices.Index(ns.queue[:], 0)], ns.cell[t] = me, dcEmpty }},
		{pc == dtRegister && cell == dcDeposit, "register: a deposit ran ahead, already woken", dtScan, func(ns *dmstate) { ns.cell[t] = dcTaken }},
		{pc == dtRegister, "register in the cell", registered, func(ns *dmstate) { ns.cell[t] = dcWaiter }},
		{pc == dtRescan && s.deque == 1, "re-scan finds work", hit, func(*dmstate) {}},
		{pc == dtRescan, "re-scan finds nothing", miss, func(*dmstate) {}},
		{pc == dtAbort && cell == dcTaken, "abort lost to the resumer: its delivery must be consumed", dtAwait, func(*dmstate) {}},
		{pc == dtAbort, "abort the ticket, decline to park", dtScan, func(ns *dmstate) { ns.queue[slices.Index(ns.queue[:], me)], ns.cell[t] = dqAborted, dcTaken }},
		{pc == dtPost, "post demand before sleeping", dtAwait, (*dmstate).post},
		{pc == dtAwait && s.ready[t], "consume the delivery", dtScan, func(ns *dmstate) { ns.ready[t] = false }},
	})
}

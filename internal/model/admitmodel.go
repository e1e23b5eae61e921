package model

import "fmt"

// Admission gate model: the serving runtime's admission queue
// (internal/sched's tryAdmit, takeNext, drained) — a depth gate bounded
// by the window (QueueDepth), the queue's one FIFO ticketed ring (mring),
// the closed flag and the drain check — between two producers, one
// FailFast and one shedding, one taking token, the service root and
// Close. The ring modelled is the only lane: taker and shedder get from
// it alike. A step is one shared-memory access, but for a ring claim
// (mring) and the gate's load-and-CAS of depth, whose lost CAS is
// retried without a trace.
//
//	producer  under the window: raise depth → re-check closed (set: give
//	          the unit back) → claim a put ticket → publish. At it: load
//	          closed → refuse (FailFast) | claim a get ticket, none: look
//	          again → empty the victim's cell → claim a put ticket → publish
//	taker     depth non-zero → raise inflight → claim a get ticket (none:
//	          lower inflight) → empty the cell → lower depth → lower inflight
//	root      load closed → load depth → load inflight; all clear: return,
//	          and the run ends (the taker stops)
//
// Checked: depth never exceeds the window; no submission is taken or shed
// twice; the root's verdict is final — when it returns nothing is queued
// or running, and nothing is published after; every published submission
// is taken or shed by the end, and every thread returns.

// AdmitConfig is the scenario. Cap is the ring's capacity and the window,
// 1 (the shedder sheds) or 2 (cells are published out of ticket order).
// BuggyCheckFirst moves the producer's closed check in front of the depth
// raise: a Close and the root's verdict can fall between the two, and the
// submission lands in a queue nobody takes from again.
type AdmitConfig struct {
	Cap             int
	BuggyCheckFirst bool
}

const ( // producer pcs, then taker pcs, then root pcs
	apCheck int8 = iota
	apGate
	apRecheck
	apGiveBack
	apFull
	apVictim
	apEvict
	apClaim
	apPublish
	apDone
	atLook
	atRaise
	atClaim
	atEmpty
	atDrop
	atSettle
	atLeave
	atDone
	arClosed
	arDepth
	arInflight
	arDone
)

type amstate struct {
	mring
	depth, inflight, tpc, tt, rpc int8
	ppc, pt                       [2]int8 // producer pcs, and the ticket each holds
	sub                           [2]int8 // per producer's submission: 0 unpublished, 1 queued, 2 taken or shed
	closed, twice, late, early    bool    // closed, then ghosts: the properties broken
}

func (s *amstate) clone() *amstate { ns := *s; return &ns }

// CheckAdmit exhaustively explores the scenario.
func CheckAdmit(cfg AdmitConfig) Result {
	s := &amstate{tpc: atLook, rpc: arClosed, ppc: [2]int8{apGate, apGate}}
	if cfg.BuggyCheckFirst {
		s.ppc = [2]int8{apCheck, apCheck}
	}
	return explore(s, rules[*amstate, amstate]{
		key: func(s *amstate) amstate { return *s }, inState: cfg.checkState, atEnd: checkAdmitEnd,
		steps: func(s *amstate) []step[*amstate] {
			out := append(append(cfg.producerSteps(s, 0), cfg.producerSteps(s, 1)...), cfg.takerSteps(s)...)
			out = append(out, cfg.rootSteps(s)...)
			if !s.closed {
				out = append(out, after(s, "close: store closed", func(ns *amstate) { ns.closed = true }))
			}
			return out
		},
	})
}

func (c AdmitConfig) checkState(s *amstate) string {
	switch {
	case s.depth > int8(c.Cap):
		return fmt.Sprintf("depth %d above the window %d", s.depth, c.Cap)
	case s.twice:
		return "a submission taken or shed twice"
	case s.late:
		return "drained not final: a submission was published after the root returned"
	case s.early:
		return "drained not final: the root returned with a submission queued or running"
	}
	return ""
}

func checkAdmitEnd(s *amstate) string {
	for i, st := range s.sub {
		if st == 1 {
			return fmt.Sprintf("submission lost: producer %d's was published and never taken", i)
		}
	}
	if s.ppc != [2]int8{apDone, apDone} || s.tpc != atDone || s.rpc != arDone {
		return fmt.Sprintf("stuck: producers at %v, taker at %d, root at %d", s.ppc, s.tpc, s.rpc)
	}
	return ""
}

// mring is internal/ring's ring as the model sees it: the two tickets,
// and each cell's seq (stored less twice the cell's index, as the ring
// stores it, so a fresh ring is the zero value) and value. Claiming a
// ticket is one step: the probe's "no" is exact as of the seq load, and a
// CAS that wins finds the ticket and its cell as the probe saw them.
type mring struct {
	tail, head int8
	seq, val   [2]int8
}

// admits is claim's cell test at ticket t: free for a put, full for a get.
func (r *mring) admits(capa int, put bool, t int8) bool {
	want := 2 * (t - t%int8(capa))
	if !put {
		want++
	}
	return r.seq[int(t)%capa] == want
}

// publish stores value v in the cell of put ticket t; empty takes the
// value out of the cell of get ticket t, freeing it for put t+capa.
func (r *mring) publish(capa int, t, v int8) {
	r.val[int(t)%capa], r.seq[int(t)%capa] = v, 2*(t-t%int8(capa))+1
}

func (r *mring) empty(capa int, t int8) (v int8) {
	i := int(t) % capa
	v, r.val[i], r.seq[i] = r.val[i], 0, 2*(t-int8(i)+int8(capa))
	return v
}

// resolve settles the submission whose id an emptied cell held.
func (s *amstate) resolve(id int8) {
	s.twice = s.twice || s.sub[id-1] != 1
	s.sub[id-1] = 2
}

func (c AdmitConfig) producerSteps(s *amstate, i int) []step[*amstate] {
	pc, raised, shedder := s.ppc[i], apRecheck, i == 1
	if c.BuggyCheckFirst {
		raised = apClaim
	}
	nop := func(*amstate) {}
	return firstOf(s, fmt.Sprintf("producer %d: ", i), func(ns *amstate) *int8 { return &ns.ppc[i] }, []row[*amstate]{
		{pc == apCheck && s.closed, "load closed: set, refuse", apDone, nop},
		{pc == apCheck, "load closed: clear", apGate, nop},
		{pc == apGate && s.depth < int8(c.Cap), "load depth, CAS it up", raised, func(ns *amstate) { ns.depth++ }},
		{pc == apGate, "load depth: at the window", apFull, nop},
		{pc == apRecheck && s.closed, "re-check closed: set", apGiveBack, nop},
		{pc == apRecheck, "re-check closed: clear", apClaim, nop},
		{pc == apGiveBack, "give the unit back, refuse", apDone, func(ns *amstate) { ns.depth-- }},
		{pc == apFull && s.closed, "load closed: set, refuse", apDone, nop},
		{pc == apFull && !shedder, "load closed: clear, refuse (FailFast)", apDone, nop},
		{pc == apFull, "load closed: clear, shed", apVictim, nop},
		{pc == apVictim && s.admits(c.Cap, false, s.head), "claim a victim's get ticket", apEvict, func(ns *amstate) { ns.pt[i] = ns.head; ns.head++ }},
		{pc == apVictim, "no victim in the head cell, look again", apGate, nop},
		{pc == apEvict, "empty the victim's cell, shed it", apClaim, func(ns *amstate) { ns.resolve(ns.empty(c.Cap, ns.pt[i])) }},
		{pc == apClaim && s.admits(c.Cap, true, s.tail), "claim a put ticket", apPublish, func(ns *amstate) { ns.pt[i] = ns.tail; ns.tail++ }},
		{pc == apPublish, "publish", apDone, func(ns *amstate) {
			ns.publish(c.Cap, ns.pt[i], int8(i+1))
			ns.sub[i], ns.late = 1, ns.late || ns.rpc == arDone
		}},
	})
}

func (c AdmitConfig) takerSteps(s *amstate) []step[*amstate] {
	pc, nop := s.tpc, func(*amstate) {}
	return firstOf(s, "taker: ", func(ns *amstate) *int8 { return &ns.tpc }, []row[*amstate]{
		{pc == atLook && s.rpc == arDone, "the run ended: stop", atDone, nop},
		{pc == atLook && s.depth > 0, "load depth: non-zero", atRaise, nop},
		{pc == atRaise, "raise inflight", atClaim, func(ns *amstate) { ns.inflight++ }},
		{pc == atClaim && s.admits(c.Cap, false, s.head), "claim a get ticket", atEmpty, func(ns *amstate) { ns.tt = ns.head; ns.head++ }},
		{pc == atClaim, "nothing to get", atLeave, nop},
		{pc == atEmpty, "empty the cell, take the submission", atDrop, func(ns *amstate) { ns.resolve(ns.empty(c.Cap, ns.tt)) }},
		{pc == atDrop, "lower depth", atSettle, func(ns *amstate) { ns.depth-- }},
		{pc == atSettle || pc == atLeave, "lower inflight", atLook, func(ns *amstate) { ns.inflight-- }},
	})
}

func (c AdmitConfig) rootSteps(s *amstate) []step[*amstate] {
	pc, nop := s.rpc, func(*amstate) {}
	return firstOf(s, "root: ", func(ns *amstate) *int8 { return &ns.rpc }, []row[*amstate]{
		{pc == arClosed && s.closed, "load closed: set", arDepth, nop},
		{pc == arDepth && s.depth == 0, "load depth: zero", arInflight, nop},
		{pc == arDepth, "load depth: non-zero, wait", arClosed, nop},
		{pc == arInflight && s.inflight == 0, "load inflight: zero, drained: return", arDone, func(ns *amstate) {
			ns.early = ns.sub[0] == 1 || ns.sub[1] == 1 || ns.tpc >= atEmpty && ns.tpc <= atSettle
		}},
		{pc == arInflight, "load inflight: non-zero, wait", arClosed, nop},
	})
}

package model

import "fmt"

// Channel model: the ticketed ring of channel.go and the register /
// re-check / park slow path of blocking.go (blockOn), exhaustively
// interleaved between senders, receivers and one closer. A step is one
// shared-memory access, with three groups of accesses taken as one step
// because nothing another strand does between them can change what
// follows:
//
//   - the cell probe together with the ticket CAS of an operation (mring);
//   - Queue.Waiting (load deq, load enq), whose answer is exact as of the
//     second load;
//   - Resume's two cell CASes (empty→resumed, else waiter→resumed), which
//     act on one word that never returns to empty.
//
// What stays apart is every window the protocol's argument is about:
// ticket taken but cell not published, waiter ticket taken but cell not
// registered, registered but not re-checked, wake claimed but not
// resolved, closed stored but queues not drained. The two cqs.Queues are
// abstracted to what the channel uses of them — the two ticket counters
// and one state per ticket's cell — with the segment list left to the
// cqs tests, and a wake is delivered in one step (the parker is a
// one-slot Go channel, whose send and receive are atomic already).
//
// Checked properties:
//
//   - no strand sleeps beside a usable cell: in every state where no
//     operation is in progress, no receiver is parked while the head cell
//     holds its item and no sender while the tail cell is free. Close
//     would hide such a sleeper at the end of the run, so this is checked
//     where it happens and not only at termination;
//   - every item is received exactly once (with CloseEarly: no item
//     twice — a send racing Close may land behind the last receiver,
//     which the channel documents);
//   - Close wakes everyone: every execution ends with all strands
//     returned, none parked.

// ChanConfig is a bounded channel scenario.
type ChanConfig struct {
	Cap       int // ring capacity, 1 or 2
	Senders   int
	Receivers int // Senders+Receivers <= 4
	Items     int // sends per sender
	// Recvs is the number of items each receiver takes before it returns
	// (Receivers*Recvs must then equal Senders*Items). 0 makes the
	// receivers loop until ErrClosed and adds the closer.
	Recvs int
	// CloseEarly lets the closer run at any point instead of after the
	// last send returned: senders then block into a close and must come
	// back with ErrClosed.
	CloseEarly bool
	// BuggyNoChainWake drops the wake of the caller's own side after a
	// successful operation, and BuggyNoRecheck parks straight after the
	// registration. Each is a lost wakeup the checker must find
	// (validating its sensitivity).
	BuggyNoChainWake bool
	BuggyNoRecheck   bool
}

const (
	chMaxThreads = 4
	chMaxTickets = 8 // waiter tickets per queue; exceeding it is reported
	chMaxStates  = 1_000_000
)

// Waiter cell states, as in cqs.
const (
	wcEmpty int8 = iota
	wcWaiter
	wcResumed
	wcAborted
)

type chQueue struct {
	enq, deq int8
	cell     [chMaxTickets]int8
	who      [chMaxTickets]int8 // the registered strand, while wcWaiter
}

// What a cell probe (claim) is for, which decides where its answer leads.
const (
	forOp    int8 = iota // the operation itself
	forReady             // blockOn's re-check
	forChain             // the own-side wake condition
)

// Program counters.
const (
	pcIdle        int8 = iota // between operations: the next step begins one
	pcRetry                   // begins the same operation again
	pcProbe                   // probe the cell of the own ticket; an operation claims it
	pcHandOver                // write or take the item, store seq
	pcClosedOp                // receiver: ring empty, load closed
	pcEmptyTail               // receiver, closed: load tail
	pcEmptyHead               // receiver, closed: load head, compare
	pcOtherAsleep             // Waiting() of the other side
	pcOwnAsleep               // Waiting() of the own side
	pcClosedRdy               // sendReady/recvReady: cell said no, load closed
	pcWakeFAA                 // wakeOne: Resume's FAA on deq
	pcWakeCell                // resolve the claimed cell
	pcWakeAgain               // the cell was aborted: Waiting() again
	pcEnq                     // blockOn: FAA enq
	pcRegister                // CAS own cell empty→waiter
	pcAbort                   // TryAbort own cell
	pcParked                  // enabled once woken
	pcDone
)

type chThread struct {
	pc    int8
	use   int8 // what the cell probe in progress is for
	t     int8 // ring ticket claimed (or tail, on the closed path)
	k     int8 // own waiter ticket
	d     int8 // dequeue ticket claimed by wakeOne
	own   bool // wakeOne runs on the own-side queue (the chain wake)
	n     int8 // operations completed (senders: items sent)
	woken bool
}

// Closer program counters.
const (
	clWait int8 = iota
	clBound
	clDeq
	clCell
	clDone
)

type chstate struct {
	mring
	closed bool
	q      [2]chQueue // 0: sendQ, 1: recvQ
	th     [chMaxThreads]chThread
	got    [4]int8 // receive count per item
	cpc    int8
	cq     int8 // queue the closer is draining
	cb, cd int8
}

// mring is internal/ring's ticketed ring as the models see it: the two
// tickets, and each cell's seq and item. Probing the cell of a ticket and
// CASing the ticket forward is one step: the probe's "no" is exact as of
// the seq load, a stale ticket is retried without a trace, and a CAS that
// wins finds the ticket and its cell as the probe saw them.
type mring struct {
	tail, head int8
	seq, val   [2]int8
}

func newMring(capa int) (r mring) {
	for i := 0; i < capa; i++ {
		r.seq[i] = int8(2 * i)
	}
	return r
}

// admits is claim's cell test at ticket t: free for a put, full for a get.
func (r *mring) admits(capa int, put bool, t int8) bool {
	want := 2 * t
	if !put {
		want++
	}
	return r.seq[int(t)%capa] == want
}

// publish stores item v in the cell of put ticket t.
func (r *mring) publish(capa int, t, v int8) {
	r.val[int(t)%capa], r.seq[int(t)%capa] = v, 2*t+1
}

// empty takes the item out of the cell of get ticket t, freeing the cell
// for put t+capa.
func (r *mring) empty(capa int, t int8) (v int8) {
	i := int(t) % capa
	v, r.val[i], r.seq[i] = r.val[i], 0, 2*(t+int8(capa))
	return v
}

// chpath is a state as the exploration reached it: the state proper,
// which alone keys the visited set, plus what belongs to the path — the
// name the trace gives each strand slot (canon renames strands as it
// goes), and the property a step found broken while it was being taken.
type chpath struct {
	chstate
	perm [chMaxThreads]int8
	bad  string
}

func (s *chpath) fail(format string, args ...any) {
	if s.bad == "" {
		s.bad = fmt.Sprintf(format, args...)
	}
}

// CheckChannel exhaustively explores the scenario.
func CheckChannel(cfg ChanConfig) Result {
	s := chpath{perm: [chMaxThreads]int8{0, 1, 2, 3}}
	s.mring = newMring(cfg.Cap)
	for i := cfg.Senders + cfg.Receivers; i < chMaxThreads; i++ {
		s.th[i].pc = pcDone
	}
	return explore(s, rules[chpath, chstate]{
		key:   func(s chpath) chstate { return s.chstate },
		steps: cfg.steps, inState: cfg.checkQuiescent, atEnd: cfg.checkTerminal,
		maxStates: chMaxStates,
	})
}

// steps lists the successors of s, strands in slot order and the closer
// last, each one retired and canonicalised.
func (c ChanConfig) steps(s chpath) []step[chpath] {
	var out []step[chpath]
	for id := 0; id <= chMaxThreads; id++ {
		ns := s
		var name string
		if id == chMaxThreads {
			name = c.closerStep(&ns)
		} else {
			name = c.threadStep(&ns, id)
		}
		if name == "" {
			continue
		}
		if id < chMaxThreads && c.Recvs > 0 {
			// No closer in this scenario: closed never changes, so a
			// load of it commutes with every other step; take it now.
			for pc := ns.th[id].pc; pc == pcClosedOp || pc == pcClosedRdy || pc == pcRetry && c.sender(id); pc = ns.th[id].pc {
				c.threadStep(&ns, id)
			}
		}
		c.retire(&ns.chstate)
		c.canon(&ns)
		out = append(out, step[chpath]{name: name, next: ns, bad: ns.bad})
	}
	return out
}

// retire drops the oldest waiter ticket of a queue once both sides are
// through with it, renumbering the rest: what the protocol does next
// depends on no ticket's number, and without this every spurious park in
// a history would make a state of its own.
func (c ChanConfig) retire(s *chstate) {
queues:
	for qi := range s.q {
		q := &s.q[qi]
		for q.enq > 0 && q.deq > 0 && q.cell[0] >= wcResumed && !(s.cpc > clBound && s.cpc < clDone && int(s.cq) == qi) {
			// The strands still holding a ticket of this queue: between
			// their registration and its abort, or between a wakeOne's
			// claim and its cell.
			var held [2 * chMaxThreads]*int8
			refs := held[:0]
			for id := range s.th {
				t := &s.th[id]
				onOwn := c.side(id) == qi
				if onOwn && (t.pc == pcRegister || t.pc == pcAbort || t.use == forReady && (t.pc == pcProbe || t.pc == pcClosedRdy)) {
					refs = append(refs, &t.k)
				}
				if t.pc == pcWakeCell && onOwn == t.own {
					refs = append(refs, &t.d)
				}
			}
			for _, r := range refs {
				if *r == 0 {
					continue queues
				}
			}
			for _, r := range refs {
				*r--
			}
			copy(q.cell[:], q.cell[1:])
			copy(q.who[:], q.who[1:])
			q.cell[chMaxTickets-1], q.who[chMaxTickets-1] = wcEmpty, 0
			q.enq--
			q.deq--
		}
	}
}

// canon orders two strands of one role by their local state, renaming
// them everywhere a strand is named (waiter cells, item numbers): the
// strands of a role run the same program, so states that differ by such
// a renaming have the same futures and only one of them is explored.
func (c ChanConfig) canon(s *chpath) {
	for _, a := range []int{0, c.Senders} {
		b := a + 1
		if c.sender(a) != c.sender(b) || b >= c.Senders+c.Receivers || !s.th[b].less(&s.th[a]) {
			continue
		}
		s.th[a], s.th[b] = s.th[b], s.th[a]
		s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
		q := &s.q[c.side(a)]
		for i, c := range q.cell {
			if c == wcWaiter {
				q.who[i] = int8(a+b) - q.who[i]
			}
		}
		if !c.sender(a) {
			continue
		}
		n := c.Items
		for i := 0; i < n; i++ {
			s.got[i], s.got[n+i] = s.got[n+i], s.got[i]
		}
		for i, v := range s.val {
			if v > int8(n) {
				s.val[i] = v - int8(n)
			} else if v > 0 {
				s.val[i] = v + int8(n)
			}
		}
	}
}

func (t *chThread) less(u *chThread) bool {
	a := [...]int8{t.pc, t.use, t.t, t.k, t.d, t.n}
	b := [...]int8{u.pc, u.use, u.t, u.k, u.d, u.n}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return !t.own && u.own || t.own == u.own && !t.woken && u.woken
}

func (c ChanConfig) sender(id int) bool { return id < c.Senders }

// side returns the index of the strand's own waiter queue.
func (c ChanConfig) side(id int) int {
	if c.sender(id) {
		return 0
	}
	return 1
}

func (c ChanConfig) name(s *chpath, id int) string {
	if c.sender(id) {
		return fmt.Sprintf("S%d", s.perm[id])
	}
	return fmt.Sprintf("R%d", int(s.perm[id])-c.Senders)
}

// checkQuiescent is the sleeping-beside-a-usable-cell invariant, on
// states where every strand is between operations, parked or returned
// and the closer is not mid-drain.
func (c ChanConfig) checkQuiescent(s chpath) string {
	if s.cpc != clWait && s.cpc != clDone {
		return ""
	}
	for id := range s.th {
		if t := &s.th[id]; t.pc != pcIdle && t.pc != pcDone && !(t.pc == pcParked && !t.woken) {
			return ""
		}
	}
	for id := range s.th {
		if s.th[id].pc != pcParked {
			continue
		}
		if c.sender(id) && s.admits(c.Cap, true, s.tail) {
			return fmt.Sprintf("lost wakeup: %s is parked while the ring has space and no operation is in progress", c.name(&s, id))
		} else if !c.sender(id) && s.admits(c.Cap, false, s.head) {
			return fmt.Sprintf("lost wakeup: %s is parked while the ring has an item and no operation is in progress", c.name(&s, id))
		}
	}
	return ""
}

func (c ChanConfig) checkTerminal(s chpath) string {
	for id := range s.th {
		if s.th[id].pc != pcDone {
			return fmt.Sprintf("lost wakeup: %s never returned (pc %d) and nothing is left to wake it", c.name(&s, id), s.th[id].pc)
		}
	}
	if c.CloseEarly {
		return ""
	}
	for i := 0; i < c.Senders*c.Items; i++ {
		if s.got[i] != 1 {
			return fmt.Sprintf("item %d received %d times", i+1, s.got[i])
		}
	}
	return ""
}

// to moves the strand to pc with its registers cleared, so that states
// differing only in dead locals merge.
func (t *chThread) to(pc int8) { *t = chThread{pc: pc, n: t.n, woken: t.woken} }

// wakeOne starts a wakeOne on the strand's other-side or own-side queue.
func (t *chThread) wakeOne(own bool) {
	t.own = own
	t.pc = pcWakeFAA
}

// opDone ends a successful operation.
func (c ChanConfig) opDone(t *chThread, id int) {
	t.n++
	t.to(pcIdle)
	limit := c.Recvs
	if c.sender(id) {
		limit = c.Items
	}
	if int(t.n) == limit {
		t.pc = pcDone
	}
}

// afterWake continues after one wakeOne (or the Waiting() that skipped
// it): the other side's wake is followed by the own side's check.
func (c ChanConfig) afterWake(t *chThread, id int) {
	if t.own || c.BuggyNoChainWake {
		c.opDone(t, id)
	} else {
		t.pc = pcOwnAsleep
	}
}

func (c ChanConfig) threadStep(s *chpath, id int) string {
	t := &s.th[id]
	sender := c.sender(id)
	own := &s.q[c.side(id)]
	wq := &s.q[1-c.side(id)] // the queue a wakeOne in progress works on
	if t.own {
		wq = own
	}
	who := c.name(s, id)
	switch t.pc {
	case pcIdle, pcRetry:
		t.use = forOp
		t.pc = pcProbe
		if !sender {
			return c.threadStep(s, id) // Recv starts at the ring
		}
		if s.closed {
			t.to(pcDone)
			return who + ": load closed: set, return ErrClosed"
		}
		return who + ": load closed: clear"
	case pcProbe:
		word := &s.head
		if sender {
			word = &s.tail
		}
		ok := s.admits(c.Cap, sender, *word)
		switch {
		case t.use == forOp && ok:
			t.t = *word
			*word++
			t.pc = pcHandOver
			return fmt.Sprintf("%s: probe, CAS ticket %d", who, t.t)
		case t.use == forOp && sender:
			t.pc = pcEnq
		case t.use == forOp:
			t.pc = pcClosedOp
		case t.use == forReady && ok:
			t.pc = pcAbort
		case ok: // forChain
			t.wakeOne(true)
		default:
			t.pc = pcClosedRdy
		}
		return fmt.Sprintf("%s: probe ticket %d: admits=%v", who, *word, ok)
	case pcHandOver:
		i := int(t.t) % c.Cap
		t.pc = pcOtherAsleep
		if sender {
			s.publish(c.Cap, t.t, int8(id*c.Items)+t.n+1)
			return fmt.Sprintf("%s: publish item %d in cell %d", who, s.val[i], i)
		}
		item := s.empty(c.Cap, t.t)
		s.got[item-1]++
		if s.got[item-1] > 1 {
			s.fail("item %d received twice", item)
		}
		return fmt.Sprintf("%s: take item %d, free cell %d", who, item, i)
	case pcClosedOp:
		if s.closed {
			t.pc = pcEmptyTail
			return who + ": ring empty, load closed: set"
		}
		t.pc = pcEnq
		return who + ": ring empty, load closed: clear"
	case pcEmptyTail:
		t.t = s.tail
		t.pc = pcEmptyHead
		return who + ": load tail"
	case pcEmptyHead:
		if t.t == s.head {
			t.to(pcDone)
			return who + ": load head: equal, return ErrClosed"
		}
		t.to(pcRetry)
		return who + ": load head: a send is in flight, retry"
	case pcOtherAsleep:
		if q := &s.q[1-c.side(id)]; q.deq < q.enq {
			t.wakeOne(false)
			return who + ": Waiting: other side asleep"
		}
		c.afterWake(t, id)
		return who + ": Waiting: other side: nobody"
	case pcOwnAsleep:
		if own.deq < own.enq {
			t.use = forChain
			t.pc = pcProbe
			return who + ": Waiting: own side asleep"
		}
		c.opDone(t, id)
		return who + ": Waiting: own side: nobody"
	case pcClosedRdy:
		switch {
		case t.use == forReady && s.closed:
			t.pc = pcAbort
		case t.use == forReady:
			t.to(pcParked)
		case s.closed:
			t.wakeOne(true)
		default:
			c.opDone(t, id)
		}
		return fmt.Sprintf("%s: ready: load closed: %v", who, s.closed)
	case pcWakeFAA:
		if wq.deq == chMaxTickets {
			s.fail("model bound: more than %d waiter tickets on one queue", chMaxTickets)
			return who + ": wakeOne"
		}
		t.d = wq.deq
		wq.deq++
		t.pc = pcWakeCell
		return fmt.Sprintf("%s: wakeOne: FAA deq: claimed ticket %d", who, t.d)
	case pcWakeCell:
		outcome := s.resume(wq, t.d)
		if outcome == "cell aborted" {
			t.pc = pcWakeAgain
		} else {
			c.afterWake(t, id)
		}
		return who + ": wakeOne: " + outcome
	case pcWakeAgain:
		if wq.deq < wq.enq {
			t.pc = pcWakeFAA
			return who + ": wakeOne: Waiting: next waiter"
		}
		c.afterWake(t, id)
		return who + ": wakeOne: Waiting: nobody"
	case pcEnq:
		if own.enq == chMaxTickets {
			s.fail("model bound: more than %d waiter tickets on one queue", chMaxTickets)
			return who + ": enqueue"
		}
		t.k = own.enq
		own.enq++
		t.pc = pcRegister
		return fmt.Sprintf("%s: blockOn: take waiter ticket %d", who, t.k)
	case pcRegister:
		if own.cell[t.k] != wcEmpty {
			t.to(pcRetry)
			return who + ": blockOn: register: wake was deposited, look again"
		}
		own.cell[t.k] = wcWaiter
		own.who[t.k] = int8(id)
		t.use = forReady
		t.pc = pcProbe
		if c.BuggyNoRecheck {
			t.to(pcParked)
		}
		return who + ": blockOn: registered"
	case pcAbort:
		if own.cell[t.k] != wcWaiter {
			t.to(pcParked)
			return who + ": blockOn: TryAbort lost, park for the wake in flight"
		}
		own.cell[t.k] = wcAborted
		own.who[t.k] = 0
		t.to(pcRetry)
		return who + ": blockOn: re-check passed, aborted own cell"
	case pcParked:
		if !t.woken {
			return ""
		}
		t.woken = false
		t.to(pcRetry)
		return who + ": resumed, look again"
	}
	return ""
}

// resume resolves the claimed dequeue ticket d of q as cqs.Resume does.
func (s *chstate) resume(q *chQueue, d int8) string {
	switch q.cell[d] {
	case wcEmpty:
		q.cell[d] = wcResumed
		return "deposited"
	case wcWaiter:
		q.cell[d] = wcResumed
		s.th[q.who[d]].woken = true
		q.who[d] = 0
		return "woke its waiter"
	}
	return "cell aborted"
}

// closerStep is Close: store closed, then Drain(sendQ), Drain(recvQ).
func (c ChanConfig) closerStep(s *chpath) string {
	q := &s.q[s.cq]
	switch s.cpc {
	case clWait:
		if c.Recvs > 0 {
			return ""
		}
		if !c.CloseEarly {
			for id := 0; id < c.Senders; id++ {
				if s.th[id].pc != pcDone {
					return ""
				}
			}
		}
		s.closed = true
		s.cpc = clBound
		return "close: store closed"
	case clBound:
		s.cb = q.enq
		s.cpc = clDeq
		return fmt.Sprintf("close: drain queue %d: load enq", s.cq)
	case clDeq:
		// ResumeBounded's load and CAS of deq, one step like the ring's
		// probe and CAS: a lost CAS is retried without a trace.
		s.cd = q.deq
		if s.cd >= s.cb {
			s.cb, s.cd = 0, 0
			s.cpc = clBound
			if s.cq++; s.cq == 2 {
				s.cq = 0
				s.cpc = clDone
			}
			return "close: drain: drained"
		}
		q.deq++
		s.cpc = clCell
		return fmt.Sprintf("close: drain: claimed ticket %d", s.cd)
	case clCell:
		s.cpc = clDeq
		return "close: drain: " + s.resume(q, s.cd)
	}
	return ""
}

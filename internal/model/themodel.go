package model

import (
	"fmt"
	"strings"
)

// THE deque micro-step model: the Cilk-5 Tail/Head/Exception protocol as
// implemented in internal/deque/the.go, decomposed into individual atomic
// accesses plus an explicit lock, exhaustively interleaved. The owner's
// lock-elision handshake (decrement tail, then Dekker-style check against
// head, falling back to the lock on conflict) is the subtlest part of the
// reproduction's deque code — this model verifies element conservation
// over all its interleavings.

// THEConfig is a bounded THE-deque scenario.
type THEConfig struct {
	// Owner is the owner's operation sequence.
	Owner []DequeOp
	// Thieves is the number of concurrent steal callers (one steal each).
	Thieves int
}

type tstate struct {
	head   int8
	tail   int8
	slots  [dequeRingSize]int8
	lock   int8 // -1 free, else holder thread id (0 owner, 1+i thief i)
	pushed int8

	ownerPC  int8
	ownerOp  int8
	ownerT   int8
	ownerH   int8
	ownerGot []int8

	thiefPC  []int8
	thiefH   []int8
	thiefGot []int8 // -1 pending, -2 empty/gave up, else value
}

func (s *tstate) clone() *tstate {
	ns := *s
	ns.ownerGot = append([]int8(nil), s.ownerGot...)
	ns.thiefPC = append([]int8(nil), s.thiefPC...)
	ns.thiefH = append([]int8(nil), s.thiefH...)
	ns.thiefGot = append([]int8(nil), s.thiefGot...)
	return &ns
}

func (s *tstate) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%v|%d|%d|%d|%d|%d|%d|%v|%v|%v|%v",
		s.head, s.tail, s.slots, s.lock, s.pushed,
		s.ownerPC, s.ownerOp, s.ownerT, s.ownerH,
		s.ownerGot, s.thiefPC, s.thiefH, s.thiefGot)
	return b.String()
}

// CheckTHE exhaustively explores the scenario.
func CheckTHE(cfg THEConfig) Result {
	s := &tstate{lock: -1, pushed: 1}
	s.thiefPC = make([]int8, cfg.Thieves)
	s.thiefH = make([]int8, cfg.Thieves)
	s.thiefGot = make([]int8, cfg.Thieves)
	for i := range s.thiefGot {
		s.thiefGot[i] = -1
	}
	return explore(s, rules[*tstate, string]{key: (*tstate).key, steps: cfg.enabled, atEnd: (*tstate).conserved})
}

// conserved verifies, at quiescence, that the lock is free and every
// element accounted for.
func (s *tstate) conserved() string {
	if s.lock != -1 {
		return fmt.Sprintf("terminal state with lock held by %d", s.lock)
	}
	return conservation(int(s.pushed)-1, s.ownerGot, s.thiefGot, s.slots, s.head, s.tail)
}

func (c THEConfig) enabled(s *tstate) []step[*tstate] {
	var out []step[*tstate]
	if int(s.ownerOp) < len(c.Owner) {
		if t, ok := c.ownerStep(s); ok {
			out = append(out, t)
		}
	}
	for i := 0; i < c.Thieves; i++ {
		if t, ok := c.thiefStep(s, i); ok {
			out = append(out, t)
		}
	}
	return out
}

// Owner micro-program.
//
// push (lock-free): 0 t = load T; 1 store slot[t]; 2 store T=t+1 → next.
//
// pop (THE protocol):
//
//	0 t = load T − 1
//	1 store T = t
//	2 h = load H; h ≤ t → 7 (take); h > t → 3 (conflict)
//	3 restore: store T = t+1
//	4 acquire lock
//	5 h = load H; h > t → reset H=T=0, release → next (empty)
//	             h ≤ t → store T = t, release → 7
//	7 take slot[t] → next
func (c THEConfig) ownerStep(s *tstate) (step[*tstate], bool) {
	op := c.Owner[s.ownerOp]
	if op == DPush {
		switch s.ownerPC {
		case 0:
			return after(s, "owner: t = load T", func(ns *tstate) {
				ns.ownerT = ns.tail
				ns.ownerPC = 1
			}), true
		case 1:
			return after(s, "owner: store slot[t]", func(ns *tstate) {
				ns.slots[ns.ownerT%dequeRingSize] = ns.pushed
				ns.pushed++
				ns.ownerPC = 2
			}), true
		default:
			return after(s, "owner: publish T=t+1", func(ns *tstate) {
				ns.tail = ns.ownerT + 1
				ns.ownerPC = 0
				ns.ownerOp++
			}), true
		}
	}
	switch s.ownerPC {
	case 0:
		return after(s, "owner: t = T-1", func(ns *tstate) {
			ns.ownerT = ns.tail - 1
			ns.ownerPC = 1
		}), true
	case 1:
		return after(s, "owner: store T = t", func(ns *tstate) {
			ns.tail = ns.ownerT
			ns.ownerPC = 2
		}), true
	case 2:
		return after(s, "owner: h = H, Dekker check", func(ns *tstate) {
			ns.ownerH = ns.head
			if ns.ownerH > ns.ownerT {
				ns.ownerPC = 3
			} else {
				ns.ownerPC = 7
			}
		}), true
	case 3:
		return after(s, "owner: conflict, restore T = t+1", func(ns *tstate) {
			ns.tail = ns.ownerT + 1
			ns.ownerPC = 4
		}), true
	case 4:
		if s.lock != -1 {
			return step[*tstate]{}, false // lock busy
		}
		return after(s, "owner: acquire lock", func(ns *tstate) {
			ns.lock = 0
			ns.ownerPC = 5
		}), true
	case 5:
		return after(s, "owner: locked recheck", func(ns *tstate) {
			if ns.head > ns.ownerT {
				// Genuinely empty: reset indices, fail the pop.
				ns.head = 0
				ns.tail = 0
				ns.lock = -1
				ns.ownerPC = 0
				ns.ownerOp++
				return
			}
			ns.tail = ns.ownerT
			ns.lock = -1
			ns.ownerPC = 7
		}), true
	default: // 7
		return after(s, "owner: take slot[t]", func(ns *tstate) {
			ns.ownerGot = append(ns.ownerGot, ns.slots[ns.ownerT%dequeRingSize])
			ns.ownerPC = 0
			ns.ownerOp++
		}), true
	}
}

// Thief micro-program (always locked):
//
//	0 acquire lock
//	1 h = load H; store H = h+1
//	2 load T; h+1 > T → undo (store H=h), release → done empty
//	           else → take slot[h], release → done
func (c THEConfig) thiefStep(s *tstate, i int) (step[*tstate], bool) {
	if s.thiefGot[i] != -1 {
		return step[*tstate]{}, false
	}
	tid := int8(1 + i)
	switch s.thiefPC[i] {
	case 0:
		if s.lock != -1 {
			return step[*tstate]{}, false
		}
		return after(s, fmt.Sprintf("thief %d: acquire lock", i), func(ns *tstate) {
			ns.lock = tid
			ns.thiefPC[i] = 1
		}), true
	case 1:
		return after(s, fmt.Sprintf("thief %d: H++ (h saved)", i), func(ns *tstate) {
			ns.thiefH[i] = ns.head
			ns.head++
			ns.thiefPC[i] = 2
		}), true
	default: // 2
		return after(s, fmt.Sprintf("thief %d: check T, take or undo", i), func(ns *tstate) {
			if ns.thiefH[i]+1 > ns.tail {
				ns.head = ns.thiefH[i]
				ns.thiefGot[i] = -2
			} else {
				ns.thiefGot[i] = ns.slots[ns.thiefH[i]%dequeRingSize]
			}
			ns.lock = -1
		}), true
	}
}

package model

import (
	"fmt"
	"strings"
)

// Deque micro-step model: the Chase–Lev algorithm as implemented in
// internal/deque/cl.go, decomposed into its individual shared-memory
// accesses (loads, stores, CAS), exhaustively interleaved between one
// owner and a set of thieves — the §II-D style of verification Norris and
// Demsky applied to the published CL queue (and found a bug in).
//
// Go's sync/atomic operations are sequentially consistent, so exploring
// all interleavings of atomic micro-steps is a faithful model of the
// implementation's possible behaviours.
//
// Checked property: element conservation — every pushed value is consumed
// exactly once (by the owner's pop or a thief's steal) or remains in the
// deque at quiescence; no loss, no duplication.

// DequeOp is one owner operation in a scenario.
type DequeOp uint8

const (
	// DPush pushes the next value in sequence.
	DPush DequeOp = iota
	// DPop pops from the bottom.
	DPop
)

// DequeConfig is a bounded scenario.
type DequeConfig struct {
	// Owner is the owner's operation sequence.
	Owner []DequeOp
	// Thieves is the number of concurrent popTop callers (each performs
	// one steal, retrying a failed CAS up to MaxRetries times).
	Thieves int
	// MaxRetries bounds a thief's CAS retries (keeps the model finite).
	MaxRetries int
	// BuggyPublishFirst inverts the push order (publish bottom before
	// storing the element) — a classic ordering bug the checker must
	// catch, validating its sensitivity.
	BuggyPublishFirst bool
}

const dequeRingSize = 8 // power of two ≥ max elements in any scenario

// dstate is the full shared + per-thread state.
type dstate struct {
	top    int8
	bottom int8
	slots  [dequeRingSize]int8

	ownerPC  int8 // index into the compiled owner micro-program
	ownerOp  int8 // which Owner op is executing
	ownerB   int8 // owner's local register
	ownerT   int8
	ownerGot []int8 // values the owner popped (in order)

	thiefPC   []int8 // per thief
	thiefT    []int8
	thiefB    []int8
	thiefX    []int8
	thiefTry  []int8
	thiefGot  []int8 // -1: nothing yet; -2: observed empty / gave up
	pushedVal int8   // next value to push (1, 2, 3, …)
}

func (s *dstate) clone() *dstate {
	ns := *s
	ns.ownerGot = append([]int8(nil), s.ownerGot...)
	ns.thiefPC = append([]int8(nil), s.thiefPC...)
	ns.thiefT = append([]int8(nil), s.thiefT...)
	ns.thiefB = append([]int8(nil), s.thiefB...)
	ns.thiefX = append([]int8(nil), s.thiefX...)
	ns.thiefTry = append([]int8(nil), s.thiefTry...)
	ns.thiefGot = append([]int8(nil), s.thiefGot...)
	return &ns
}

func (s *dstate) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%v|%d|%d|%d|%d|%v|", s.top, s.bottom, s.slots, s.ownerPC, s.ownerOp, s.ownerB, s.ownerT, s.ownerGot)
	fmt.Fprintf(&b, "%v|%v|%v|%v|%v|%v|%d", s.thiefPC, s.thiefT, s.thiefB, s.thiefX, s.thiefTry, s.thiefGot, s.pushedVal)
	return b.String()
}

// CheckDeque exhaustively explores the scenario.
func CheckDeque(cfg DequeConfig) Result {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	s := &dstate{pushedVal: 1}
	s.thiefPC = make([]int8, cfg.Thieves)
	s.thiefT = make([]int8, cfg.Thieves)
	s.thiefB = make([]int8, cfg.Thieves)
	s.thiefX = make([]int8, cfg.Thieves)
	s.thiefTry = make([]int8, cfg.Thieves)
	s.thiefGot = make([]int8, cfg.Thieves)
	for i := range s.thiefGot {
		s.thiefGot[i] = -1
	}
	return explore(s, rules[*dstate, string]{key: (*dstate).key, steps: cfg.enabled, atEnd: (*dstate).conserved})
}

// conserved verifies conservation at quiescence.
func (s *dstate) conserved() string {
	return conservation(int(s.pushedVal)-1, s.ownerGot, s.thiefGot, s.slots, s.top, s.bottom)
}

// conservation checks that each of the values 1..pushed was consumed
// exactly once — by the owner, by a thief — or still sits in the ring at
// indices [lo, hi).
func conservation(pushed int, ownerGot, thiefGot []int8, slots [dequeRingSize]int8, lo, hi int8) string {
	seen := map[int8]int{}
	for _, v := range ownerGot {
		seen[v]++
	}
	for _, v := range thiefGot {
		if v > 0 {
			seen[v]++
		}
	}
	for i := lo; i < hi; i++ {
		seen[slots[i%dequeRingSize]]++
	}
	for v := int8(1); int(v) <= pushed; v++ {
		switch seen[v] {
		case 1:
		case 0:
			return fmt.Sprintf("lost element %d", v)
		default:
			return fmt.Sprintf("element %d consumed %d times", v, seen[v])
		}
	}
	return ""
}

// Owner micro-programs. pc encoding per op:
//
//	push: 0 load b,t (reads only — fused, they do not affect safety);
//	      1 store slot[b]; 2 store bottom=b+1 → next op
//	pop:  0 b=load(bottom)-1; 1 store bottom=b; 2 t=load top, branch;
//	      3 empty path: store bottom=t → next op
//	      4 single-element: CAS top (succeed or lose); 5 store bottom=t+1 → next
//	      6 plain take slot[b] → next op
func (c DequeConfig) enabled(s *dstate) []step[*dstate] {
	var out []step[*dstate]
	if int(s.ownerOp) < len(c.Owner) {
		out = append(out, c.ownerStep(s))
	}
	for i := 0; i < c.Thieves; i++ {
		if t, ok := c.thiefStep(s, i); ok {
			out = append(out, t)
		}
	}
	return out
}

func (c DequeConfig) ownerStep(s *dstate) step[*dstate] {
	op := c.Owner[s.ownerOp]
	if op == DPush {
		storeSlot := func(ns *dstate) {
			ns.slots[ns.ownerB%dequeRingSize] = ns.pushedVal
			ns.pushedVal++
		}
		publish := func(ns *dstate) { ns.bottom = ns.ownerB + 1 }
		first, second := storeSlot, publish
		names := [2]string{"owner: store slot[b]", "owner: publish bottom=b+1"}
		if c.BuggyPublishFirst {
			first, second = publish, storeSlot
			names = [2]string{"owner: publish bottom=b+1 (BUGGY ORDER)", "owner: store slot[b]"}
		}
		switch s.ownerPC {
		case 0:
			return after(s, "owner: push loads b", func(ns *dstate) {
				ns.ownerB = ns.bottom
				ns.ownerPC = 1
			})
		case 1:
			return after(s, names[0], func(ns *dstate) {
				first(ns)
				ns.ownerPC = 2
			})
		default:
			return after(s, names[1], func(ns *dstate) {
				second(ns)
				ns.ownerPC = 0
				ns.ownerOp++
			})
		}
	}
	// DPop
	switch s.ownerPC {
	case 0:
		return after(s, "owner: pop b = bottom-1", func(ns *dstate) {
			ns.ownerB = ns.bottom - 1
			ns.ownerPC = 1
		})
	case 1:
		return after(s, "owner: store bottom=b", func(ns *dstate) {
			ns.bottom = ns.ownerB
			ns.ownerPC = 2
		})
	case 2:
		return after(s, "owner: t = top, branch", func(ns *dstate) {
			ns.ownerT = ns.top
			switch {
			case ns.ownerT > ns.ownerB:
				ns.ownerPC = 3 // empty
			case ns.ownerT == ns.ownerB:
				ns.ownerPC = 4 // last-element race
			default:
				ns.ownerPC = 6 // plain take
			}
		})
	case 3:
		return after(s, "owner: empty, restore bottom=t", func(ns *dstate) {
			ns.bottom = ns.ownerT
			ns.ownerPC = 0
			ns.ownerOp++
		})
	case 4:
		return after(s, "owner: CAS top (last element)", func(ns *dstate) {
			if ns.top == ns.ownerT {
				ns.top = ns.ownerT + 1
				ns.ownerGot = append(ns.ownerGot, ns.slots[ns.ownerB%dequeRingSize])
			}
			ns.ownerPC = 5
		})
	case 5:
		return after(s, "owner: store bottom=t+1", func(ns *dstate) {
			ns.bottom = ns.ownerT + 1
			ns.ownerPC = 0
			ns.ownerOp++
		})
	default: // 6
		return after(s, "owner: take slot[b]", func(ns *dstate) {
			ns.ownerGot = append(ns.ownerGot, ns.slots[ns.ownerB%dequeRingSize])
			ns.ownerPC = 0
			ns.ownerOp++
		})
	}
}

// Thief micro-program: 0 t=load top; 1 b=load bottom, branch (empty →
// done); 2 x=load slot[t]; 3 CAS top: success → got x, done; failure →
// retry from 0 or give up.
func (c DequeConfig) thiefStep(s *dstate, i int) (step[*dstate], bool) {
	if s.thiefGot[i] != -1 {
		return step[*dstate]{}, false // done
	}
	switch s.thiefPC[i] {
	case 0:
		return after(s, fmt.Sprintf("thief %d: t = top", i), func(ns *dstate) {
			ns.thiefT[i] = ns.top
			ns.thiefPC[i] = 1
		}), true
	case 1:
		return after(s, fmt.Sprintf("thief %d: b = bottom, branch", i), func(ns *dstate) {
			ns.thiefB[i] = ns.bottom
			if ns.thiefT[i] >= ns.thiefB[i] {
				ns.thiefGot[i] = -2 // observed empty
				return
			}
			ns.thiefPC[i] = 2
		}), true
	case 2:
		return after(s, fmt.Sprintf("thief %d: x = slot[t]", i), func(ns *dstate) {
			ns.thiefX[i] = ns.slots[ns.thiefT[i]%dequeRingSize]
			ns.thiefPC[i] = 3
		}), true
	default: // 3
		return after(s, fmt.Sprintf("thief %d: CAS top", i), func(ns *dstate) {
			if ns.top == ns.thiefT[i] {
				ns.top = ns.thiefT[i] + 1
				ns.thiefGot[i] = ns.thiefX[i]
				return
			}
			ns.thiefTry[i]++
			if int(ns.thiefTry[i]) >= c.MaxRetries {
				ns.thiefGot[i] = -2 // give up (lost race)
				return
			}
			ns.thiefPC[i] = 0
		}), true
	}
}

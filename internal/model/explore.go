package model

import "fmt"

// The exploration engine under every model of this package. A model is
// its state type S, a key K under which two states count as the same,
// and four rules; explore walks the reachable states depth first, each
// distinct key once, and stops at the first property that breaks.

// step is one enabled atomic step: its name in a counterexample and the
// state it leads to.
type step[S any] struct {
	name string
	next S
}

// rules is what explore needs of a model. steps lists the steps enabled
// in a state, threads in index order, which makes the first violation
// found deterministic; a state with none ends a maximal execution.
// inState and atEnd name the property a reachable state, or
// the last state of a maximal execution, violates — "" when it violates
// none.
type rules[S any, K comparable] struct {
	key     func(S) K
	steps   func(S) []step[S]
	inState func(S) string
	atEnd   func(S) string
}

// explore exhaustively interleaves the model from init.
func explore[S any, K comparable](init S, m rules[S, K]) Result {
	var (
		res     Result
		trace   []string
		visited = map[K]bool{}
	)
	fail := func(kind string) {
		res.Violation = &Violation{Kind: kind, Trace: append([]string(nil), trace...)}
	}
	var dfs func(S)
	dfs = func(s S) {
		k := m.key(s)
		if visited[k] {
			return
		}
		visited[k] = true
		if kind := m.inState(s); kind != "" {
			fail(kind)
			return
		}
		steps := m.steps(s)
		if len(steps) == 0 {
			res.Executions++
			if kind := m.atEnd(s); kind != "" {
				fail(kind)
			}
			return
		}
		for _, st := range steps {
			trace = append(trace, st.name)
			dfs(st.next)
			trace = trace[:len(trace)-1]
			if res.Violation != nil {
				return
			}
		}
	}
	dfs(init)
	res.States = len(visited)
	return res
}

// cloner is a state the step builders can copy before mutating.
type cloner[S any] interface{ clone() S }

// after builds the step that runs f on a copy of s, a step that cannot
// break a property by itself.
func after[S cloner[S]](s S, name string, f func(S)) step[S] {
	ns := s.clone()
	f(ns)
	return step[S]{name: name, next: ns}
}

// row is a candidate step of one thread: if on, the thread's pc moves to
// next, then f runs.
type row[S any] struct {
	on   bool
	name string
	next int8
	f    func(S)
}

// firstOf is the step of the first enabled row; pc picks the thread's pc.
func firstOf[S cloner[S]](s S, who string, pc func(S) *int8, rows []row[S]) []step[S] {
	for _, r := range rows {
		if r.on {
			return []step[S]{after(s, who+r.name, func(ns S) { *pc(ns) = r.next; r.f(ns) })}
		}
	}
	return nil
}

// Check exhaustively explores all interleavings of the configured model
// with a DFS over distinct states, and returns the first violation found
// (deterministically: threads are tried in index order).
func Check(cfg Config) Result {
	if cfg.Spawns < 1 {
		cfg.Spawns = 1
	}
	// Locked/naive count active parallel strands: the main strand is
	// active from the start (§III-A: N_c starts at one).
	s := &state{pc: make([]int8, 1+2*cfg.Spawns), cont: -1, consumedBy: make([]int8, cfg.Spawns), counter: 1}
	if cfg.Proto == ProtoWaitFree {
		s.counter = iMax
	}
	return explore(s, rules[*state, string]{
		key: (*state).key, steps: cfg.enabled, inState: cfg.checkState, atEnd: cfg.checkTerminal,
	})
}

// checkState verifies the safety properties in every reachable state.
func (c Config) checkState(s *state) string {
	if s.released > 1 {
		return "double release: the sync point was released twice"
	}
	if s.released > 0 && !s.syncing && s.pc[0] != c.pcMainDone() {
		return "premature release: sync released before the main path reached the explicit sync point"
	}
	if s.released == 1 {
		// A release is premature unless every child strand has finished.
		for i := 0; i < c.Spawns; i++ {
			if s.pc[1+i] != c.childDonePC() {
				return fmt.Sprintf("premature release: sync released while child %d is still active", i)
			}
		}
	}
	return ""
}

// checkTerminal verifies liveness at maximal executions: the computation
// must have completed the sync exactly once.
func (c Config) checkTerminal(s *state) string {
	if s.pc[0] != c.pcMainDone() {
		return fmt.Sprintf("lost release: execution deadlocked with the main path at pc %d", s.pc[0])
	}
	if s.released != 1 {
		return fmt.Sprintf("terminal state with %d releases, want 1", s.released)
	}
	return ""
}

func (c Config) childDonePC() int8 {
	if c.Proto == ProtoNaive {
		return 2
	}
	return 1
}

// enabled lists every enabled transition, threads in index order.
func (c Config) enabled(s *state) []step[*state] {
	out := c.mainSteps(s)
	for i := 0; i < c.Spawns; i++ {
		out = append(out, c.childSteps(s, i)...)
		out = append(out, c.thiefSteps(s, i)...)
	}
	return out
}

// --- main path ------------------------------------------------------------

func (cfg Config) mainSteps(s *state) []step[*state] {
	pc := s.pc[0]
	if i, ok := cfg.mainPush(pc); ok {
		return []step[*state]{after(s, fmt.Sprintf("main: push continuation %d, call child %d", i, i), func(ns *state) {
			ns.cont = int8(i)
			ns.pc[0]++
		})}
	}
	if i, ok := cfg.mainWait(pc); ok {
		if !s.resume {
			return nil
		}
		return []step[*state]{after(s, fmt.Sprintf("main: resumed after spawn %d", i), func(ns *state) {
			ns.resume = false
			ns.pc[0]++
		})}
	}
	switch pc {
	case cfg.pcPublish():
		// Publish the suspension handle before touching the counter, as
		// the runtime does.
		return []step[*state]{after(s, "main: reach explicit sync, publish suspension", func(ns *state) {
			ns.syncing = true
			ns.pc[0]++
		})}
	case cfg.pcCheck():
		switch cfg.Proto {
		case ProtoWaitFree:
			return []step[*state]{after(s, "main: restore N_r = N_r' - (I_max - alpha) and test", func(ns *state) {
				ns.counter -= iMax - ns.alpha
				if ns.counter == 0 {
					ns.released++
					ns.pc[0] = cfg.pcMainDone()
					return
				}
				ns.pc[0]++
			})}
		default:
			// Locked and naive: the main strand leaves the computation,
			// decrementing the active count; zero means no outstanding
			// children. Under ProtoLocked this whole step is atomic (frame
			// lock); the naive variant is identical here — its race is on
			// the queue/counter pairs of thieves and joiners.
			return []step[*state]{after(s, "main: sync decrement and test", func(ns *state) {
				ns.counter--
				if ns.counter == 0 {
					ns.released++
					ns.pc[0] = cfg.pcMainDone()
					return
				}
				ns.pc[0]++
			})}
		}
	case cfg.pcWaitRel():
		if s.released == 0 {
			return nil
		}
		return []step[*state]{after(s, "main: woken past the sync point", func(ns *state) { ns.pc[0] = cfg.pcMainDone() })}
	}
	return nil
}

// --- children --------------------------------------------------------------

func (c Config) childSteps(s *state, i int) []step[*state] {
	tid := 1 + i
	// A child exists once its spawn happened: main is past push i.
	if int(s.pc[0]) < 2*i+1 {
		return nil
	}
	switch s.pc[tid] {
	case 0:
		if s.cont == int8(i) {
			// popBottom hit: discard the continuation and proceed — the
			// resume of the parent without any counter operation.
			return []step[*state]{after(s, fmt.Sprintf("child %d: popBottom hit, resume parent", i), func(ns *state) {
				ns.cont = -1
				ns.consumedBy[i] = 1
				ns.resume = true
				ns.pc[tid] = c.childDonePC()
			})}
		}
		if s.consumedBy[i] != 2 {
			// The continuation is still in flight (thief mid-steal is
			// modelled by consumedBy already being set); wait.
			if s.cont == -1 && s.consumedBy[i] == 0 {
				return nil
			}
		}
		// popBottom miss: the continuation was stolen — implicit sync.
		switch c.Proto {
		case ProtoWaitFree:
			return []step[*state]{after(s, fmt.Sprintf("child %d: popBottom miss; counter-- and test", i), func(ns *state) {
				ns.counter--
				if ns.counter == 0 {
					ns.released++
				}
				ns.pc[tid] = 1
			})}
		case ProtoLocked:
			// Deque lock + frame lock fuse the miss observation with the
			// decrement and test.
			return []step[*state]{after(s, fmt.Sprintf("child %d: [locked] miss+decrement+test", i), func(ns *state) {
				ns.counter--
				if ns.syncing && ns.counter == 0 {
					ns.released++
				}
				ns.pc[tid] = 1
			})}
		default: // ProtoNaive: miss observed; decrement is a separate step.
			return []step[*state]{after(s, fmt.Sprintf("child %d: popBottom miss observed", i), func(ns *state) { ns.pc[tid] = 1 })}
		}
	case 1:
		if c.Proto != ProtoNaive {
			return nil // done
		}
		return []step[*state]{after(s, fmt.Sprintf("child %d: counter-- and test", i), func(ns *state) {
			ns.counter--
			if ns.counter == 0 {
				ns.released++
			}
			ns.pc[tid] = 2
		})}
	}
	return nil
}

// --- thieves ---------------------------------------------------------------

func (c Config) thiefSteps(s *state, i int) []step[*state] {
	tid := 1 + c.Spawns + i
	if int(s.pc[0]) < 2*i+1 {
		return nil // nothing published yet
	}
	switch s.pc[tid] {
	case 0:
		if s.cont == int8(i) {
			if c.Proto == ProtoLocked {
				// Deque lock held across popTop and the count increment
				// (Listing 2): one atomic step.
				return []step[*state]{after(s, fmt.Sprintf("thief %d: [locked] popTop+count++", i), func(ns *state) {
					ns.cont = -1
					ns.consumedBy[i] = 2
					ns.counter++
					ns.pc[tid] = 2
				})}
			}
			return []step[*state]{after(s, fmt.Sprintf("thief %d: popTop", i), func(ns *state) {
				ns.cont = -1
				ns.consumedBy[i] = 2
				ns.pc[tid] = 1
			})}
		}
		if s.consumedBy[i] == 1 {
			// The child won the race; this thief gives up.
			return []step[*state]{after(s, fmt.Sprintf("thief %d: continuation gone, abandon", i), func(ns *state) { ns.pc[tid] = 3 })}
		}
		return nil
	case 1:
		// The separate count update after the steal — the §III-C window.
		switch c.Proto {
		case ProtoWaitFree:
			return []step[*state]{after(s, fmt.Sprintf("thief %d: alpha++ (run())", i), func(ns *state) {
				ns.alpha++
				ns.pc[tid] = 2
			})}
		default: // naive
			return []step[*state]{after(s, fmt.Sprintf("thief %d: count++ (run())", i), func(ns *state) {
				ns.counter++
				ns.pc[tid] = 2
			})}
		}
	case 2:
		return []step[*state]{after(s, fmt.Sprintf("thief %d: resume stolen continuation", i), func(ns *state) {
			ns.resume = true
			ns.pc[tid] = 3
		})}
	}
	return nil
}

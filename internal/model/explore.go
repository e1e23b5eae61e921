package model

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

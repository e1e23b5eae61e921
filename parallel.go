package nowa

// Structured-parallelism combinators built on the spawn/sync primitives,
// the convenience layer a downstream user reaches for first.
//
// Under a cancelled RunCtx every combinator exits early: subranges not
// yet started are skipped (For) or fold to the identity (Reduce), so
// a cancelled run winds down in O(started work) rather than finishing
// the whole iteration space inline.

// Invoke runs the given functions as parallel siblings and returns when
// all have finished (a k-ary fork/join). Under a cancelled run no
// function is started.
func Invoke(c Ctx, fns ...func(Ctx)) {
	if c.Err() != nil {
		return
	}
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0](c)
		return
	}
	s := c.Scope()
	for _, fn := range fns[1:] {
		s.Spawn(fn)
	}
	fns[0](c)
	s.Sync()
}

// For executes body(i) for every i in [lo, hi) with divide-and-conquer
// parallelism; ranges of at most grain iterations run serially. A grain
// of 0 derives one from the range and worker count.
func For(c Ctx, lo, hi, grain int, body func(c Ctx, i int)) {
	if hi <= lo {
		return
	}
	if grain <= 0 {
		grain = (hi - lo) / (8 * c.Workers())
		if grain < 1 {
			grain = 1
		}
	}
	forRange(c, lo, hi, grain, body)
}

func forRange(c Ctx, lo, hi, grain int, body func(c Ctx, i int)) {
	if c.Err() != nil {
		return
	}
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		s := c.Scope()
		l, m := lo, mid
		s.Spawn(func(c Ctx) { forRange(c, l, m, grain, body) })
		lo = mid
		forRange(c, lo, hi, grain, body)
		s.Sync()
		return
	}
	for i := lo; i < hi; i++ {
		body(c, i)
	}
}

// Reduce maps every index of [lo, hi) through mapf and folds the results
// with combine (which must be associative); identity is the fold seed.
// Ranges of at most grain iterations are folded serially.
func Reduce[T any](c Ctx, lo, hi, grain int, identity T, mapf func(c Ctx, i int) T, combine func(a, b T) T) T {
	if hi <= lo {
		return identity
	}
	if grain <= 0 {
		grain = (hi - lo) / (8 * c.Workers())
		if grain < 1 {
			grain = 1
		}
	}
	return reduceRange(c, lo, hi, grain, identity, mapf, combine)
}

func reduceRange[T any](c Ctx, lo, hi, grain int, identity T, mapf func(c Ctx, i int) T, combine func(a, b T) T) T {
	if c.Err() != nil {
		return identity
	}
	if hi-lo <= grain {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = combine(acc, mapf(c, i))
		}
		return acc
	}
	mid := lo + (hi-lo)/2
	var left T
	s := c.Scope()
	s.Spawn(func(c Ctx) { left = reduceRange(c, lo, mid, grain, identity, mapf, combine) })
	right := reduceRange(c, mid, hi, grain, identity, mapf, combine)
	s.Sync()
	return combine(left, right)
}

package nowa

import (
	"errors"
	"strings"
	"testing"

	"nowa/internal/api"
	"nowa/internal/sched"
)

// recoverPanic runs f and returns the recovered StrandPanic, if any.
func recoverPanic(f func()) (sp *api.StrandPanic) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if sp, ok = r.(*api.StrandPanic); !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

func TestPanicInChildPropagates(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 4)
			defer Close(rt)
			sp := recoverPanic(func() {
				rt.Run(func(c Ctx) {
					s := c.Scope()
					s.Spawn(func(Ctx) { panic("boom in child") })
					s.Spawn(func(Ctx) {}) // sibling still joins
					s.Sync()
				})
			})
			if sp == nil {
				t.Fatal("child panic did not propagate out of Run")
			}
			if sp.Value != "boom in child" {
				t.Errorf("panic value = %v", sp.Value)
			}
			if len(sp.Stack) == 0 {
				t.Error("no stack captured")
			}
			if !strings.Contains(sp.String(), "boom in child") {
				t.Errorf("formatted panic: %s", sp)
			}
		})
	}
}

func TestPanicInRootPropagates(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 2)
			defer Close(rt)
			sp := recoverPanic(func() {
				rt.Run(func(c Ctx) { panic("boom in root") })
			})
			if sp == nil {
				t.Fatal("root panic did not propagate")
			}
		})
	}
}

func TestRuntimeUsableAfterPanic(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 4)
			defer Close(rt)
			if recoverPanic(func() {
				rt.Run(func(c Ctx) {
					s := c.Scope()
					s.Spawn(func(Ctx) { panic("first run dies") })
					s.Sync()
				})
			}) == nil {
				t.Fatal("panic lost")
			}
			// The runtime must be fully functional afterwards.
			var got int
			rt.Run(func(c Ctx) { got = fib(c, 14) })
			if got != 377 {
				t.Fatalf("post-panic fib(14) = %d, want 377", got)
			}
			// And it must be idle again, with no vessel or stack leaked
			// on the panic path: everything created was recycled. (Scope
			// leaks are legal on panic unwinds; CheckIdle tests for them
			// after the vessel and stack bars.)
			if srt, ok := rt.(*sched.Runtime); ok {
				if err := srt.CheckIdle(); err != nil && !strings.HasPrefix(err.Error(), "scope-leak:") {
					t.Errorf("not idle after panic: %v", err)
				}
			}
		})
	}
}

func TestDeepStrandPanic(t *testing.T) {
	rt := New(VariantNowa, 4)
	defer Close(rt)
	var deep func(c Ctx, d int)
	deep = func(c Ctx, d int) {
		if d == 0 {
			panic(errors.New("deep failure"))
		}
		s := c.Scope()
		s.Spawn(func(c Ctx) { deep(c, d-1) })
		s.Sync()
	}
	sp := recoverPanic(func() {
		rt.Run(func(c Ctx) { deep(c, 20) })
	})
	if sp == nil {
		t.Fatal("deep panic lost")
	}
	// The error value must be unwrappable.
	if err := sp.Unwrap(); err == nil || err.Error() != "deep failure" {
		t.Errorf("Unwrap = %v", err)
	}
	if !errors.Is(sp, sp.Unwrap()) && sp.Unwrap() != nil {
		// errors.Is via Unwrap chain: sp wraps the original error.
		if !errors.Is(error(sp), sp.Unwrap()) {
			t.Error("errors.Is does not traverse the StrandPanic")
		}
	}
}

func TestPanicWhileSiblingsRunEverywhere(t *testing.T) {
	// A panicking strand must not strand its siblings: all of them finish
	// and the computation drains.
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 4)
			defer Close(rt)
			done := make([]bool, 8)
			sp := recoverPanic(func() {
				rt.Run(func(c Ctx) {
					s := c.Scope()
					for i := range done {
						i := i
						s.Spawn(func(c Ctx) {
							_ = fib(c, 10)
							done[i] = true
						})
					}
					s.Spawn(func(Ctx) { panic("middle child") })
					s.Sync()
				})
			})
			if sp == nil {
				t.Fatal("panic lost")
			}
			for i, d := range done {
				if !d {
					t.Errorf("sibling %d did not complete", i)
				}
			}
		})
	}
}

// TestPanicSuppressedCount: when several strands panic during one Run,
// the first panic is re-raised and the rest are tallied on it —
// Suppressed counts them all and SuppressedValues keeps the first
// api.MaxSuppressedValues. Every variant's panic containment must feed
// the tally.
func TestPanicSuppressedCount(t *testing.T) {
	const panickers = 6
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			rt := New(v, 2)
			defer Close(rt)
			sp := recoverPanic(func() {
				rt.Run(func(c Ctx) {
					s := c.Scope()
					for i := 0; i < panickers; i++ {
						i := i
						s.Spawn(func(Ctx) { panic(i) })
					}
					s.Sync()
				})
			})
			if sp == nil {
				t.Fatal("no StrandPanic propagated")
			}
			if sp.Suppressed != panickers-1 {
				t.Errorf("Suppressed = %d, want %d", sp.Suppressed, panickers-1)
			}
			if len(sp.SuppressedValues) != api.MaxSuppressedValues {
				t.Errorf("len(SuppressedValues) = %d, want %d",
					len(sp.SuppressedValues), api.MaxSuppressedValues)
			}
			if !strings.Contains(sp.String(), "suppressed") {
				t.Errorf("formatted panic does not mention suppression: %s", sp)
			}
		})
	}
}

// TestPanicSingleHasNoSuppression: the common one-panic case keeps the
// pre-existing format (no suppression note).
func TestPanicSingleHasNoSuppression(t *testing.T) {
	rt := New(VariantNowa, 2)
	defer Close(rt)
	sp := recoverPanic(func() {
		rt.Run(func(c Ctx) {
			s := c.Scope()
			s.Spawn(func(Ctx) { panic(errors.New("lone")) })
			s.Sync()
		})
	})
	if sp == nil {
		t.Fatal("no StrandPanic propagated")
	}
	if sp.Suppressed != 0 || len(sp.SuppressedValues) != 0 {
		t.Errorf("single panic reports suppression: %+v", sp)
	}
	if strings.Contains(sp.String(), "suppressed") {
		t.Errorf("single panic formatted with suppression note: %s", sp)
	}
}

package api

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// MaxSuppressedValues bounds how many suppressed panic values a
// StrandPanic retains; later ones are counted but not kept.
const MaxSuppressedValues = 4

// StrandPanic wraps a panic that escaped a strand. Runtimes recover
// panics inside spawned strands, let the fully-strict computation drain
// (so every outstanding child still joins and the runtime stays usable),
// and then re-panic with a StrandPanic from Run on the caller's
// goroutine. The original stack trace is preserved for diagnosis.
//
// When several strands panic during the same Run, the first panic is the
// one re-raised; the rest are tallied on it by the PanicSink that kept it,
// so a multi-strand failure is visible as such — Suppressed counts them
// and SuppressedValues keeps the first MaxSuppressedValues of their values.
type StrandPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking strand's stack trace.
	Stack []byte
	// Suppressed counts additional strand panics from the same Run that
	// were dropped in favour of this (first) one.
	Suppressed int
	// SuppressedValues holds the values of the first few suppressed
	// panics (at most MaxSuppressedValues), in arrival order.
	SuppressedValues []any
}

// PanicSink keeps the first strand panic of one Run or one submission:
// the first Note is the panic reported, every later one is tallied on it
// (Suppressed, and its value while fewer than MaxSuppressedValues are
// kept). The zero value is empty and ready; Note and Take are safe for
// concurrent use.
type PanicSink struct {
	mu sync.Mutex
	p  *StrandPanic
}

// Note records one strand panic. Call it from the panicking goroutine's
// deferred recover: the first panic keeps that goroutine's stack.
func (s *PanicSink) Note(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p == nil {
		s.p = &StrandPanic{Value: v, Stack: debug.Stack()}
		return
	}
	s.p.Suppressed++
	if len(s.p.SuppressedValues) < MaxSuppressedValues {
		s.p.SuppressedValues = append(s.p.SuppressedValues, v)
	}
}

// Take returns the recorded panic, nil if there was none, and empties
// the sink for the next Run.
func (s *PanicSink) Take() *StrandPanic {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.p
	s.p = nil
	return p
}

// Error makes StrandPanic usable with recover-and-inspect error handling.
func (p *StrandPanic) Error() string { return p.String() }

// String formats the panic with its originating stack and any suppressed
// co-panics.
func (p *StrandPanic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "panic in spawned strand: %v", p.Value)
	if p.Suppressed > 0 {
		fmt.Fprintf(&b, " (+%d further strand panic(s) suppressed", p.Suppressed)
		for i, v := range p.SuppressedValues {
			if i == 0 {
				b.WriteString(": ")
			} else {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%v", v)
		}
		if p.Suppressed > len(p.SuppressedValues) {
			b.WriteString("; …")
		}
		b.WriteString(")")
	}
	fmt.Fprintf(&b, "\n\nstrand stack:\n%s", p.Stack)
	return b.String()
}

// Unwrap exposes a wrapped error value, if the strand panicked with one.
func (p *StrandPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

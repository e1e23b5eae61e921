package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// The //nowa: annotation grammar. Annotations are directive comments
// (no space after //, so gofmt leaves them alone):
//
//	//nowa:hotpath
//	    Declaration-scoped, on a function. Marks the function as a root
//	    of the zero-alloc hot region; the hotpath analyzer checks it and
//	    every intra-module function it (transitively) calls.
//
//	//nowa:coldpath <reason>
//	    Declaration-scoped, on a function. Stops the hot-region callee
//	    traversal at this function: it is a documented slow path (pool
//	    refill, ring growth, diagnostics) reachable from a hot function
//	    but off the steady state. The reason is mandatory.
//
//	//nowa:hotpath-ok <reason>
//	    Line-scoped. Permits one flagged construct inside hot code (the
//	    parker's blocking-fallback channel ops, a never-growing append).
//	    The reason is mandatory.
//
//	//nowa:plain-ok <reason>
//	    Line-scoped. Permits a plain (non-atomic) access to a field that
//	    is accessed atomically elsewhere; the justification must explain
//	    the happens-before argument. The reason is mandatory.
//
//	//nowa:nopad <reason>
//	    Declaration-scoped, on a struct type. Exempts an atomic-bearing
//	    struct from the 128-byte padding + size-guard pattern (singletons
//	    and individually heap-allocated structs have no adjacent
//	    instances to false-share with). The reason is mandatory.
//
//	//nowa:join-state
//	    Declaration-scoped, on a struct type. Marks the struct as join
//	    protocol state: its fields may be operated on only inside
//	    internal/core and internal/sched (the joinenc analyzer).
//
//	//nowa:lock level=N name=<name>
//	    Declaration-scoped, on a sync.Mutex struct field. Enrolls the
//	    mutex in the module lock hierarchy at level N (levels strictly
//	    increase along any acquisition chain). The lockorder analyzer
//	    flags out-of-order acquisition, double-lock, and an enrolled
//	    lock held across a blocking boundary (channel op, select
//	    without default, Cond.Wait, time.Sleep — directly or through
//	    any statically resolvable callee).
//
//	//nowa:lock-ok <reason>
//	    Line-scoped. Permits one flagged lockorder construct — a
//	    documented blocking call made while holding an enrolled lock
//	    (vessel teardown delivering a wake under govMu). The reason is
//	    mandatory.
//
//	//nowa:fsm phases=<p1,p2,...> transitions=<a>b,c>d,...> [mask=<M>]
//	    Declaration-scoped, on an atomic struct field (wrapper type or
//	    raw word accessed via sync/atomic). Declares the field's packed
//	    state machine: phases name constants of the field's package
//	    (or the literals false,true for atomic.Bool); transitions list
//	    the legal phase edges as from>to pairs. With mask=M, the phase
//	    lives in the bits of constant M and x&^M is phase-neutral (the
//	    other bits are free payload, e.g. an ABA round counter). The
//	    fsm analyzer checks every CompareAndSwap/Swap/Store/plain
//	    write against the declared machine.
//
//	//nowa:fsm-ok <reason>
//	    Line-scoped. Permits one atomic operation on an fsm field whose
//	    phases the analyzer cannot infer statically (a CAS whose old
//	    value was loaded and dynamically guarded). The reason is
//	    mandatory.
//
// Line-scoped annotations cover the line they sit on (trailing comment)
// or the line immediately below (comment on its own line). A reason, when
// required, is free text to end of line and must be non-empty; for verbs
// taking key=value arguments (lock, fsm) the argument string is carried
// in the same field and parsed by the analyzer. Malformed annotations are
// themselves reported as findings.

const notePrefix = "//nowa:"

// noteVerbs maps each verb to whether it requires a reason.
var noteVerbs = map[string]bool{
	"hotpath":    false,
	"coldpath":   true,
	"hotpath-ok": true,
	"plain-ok":   true,
	"nopad":      true,
	"join-state": false,
	"lock":       true, // "reason" carries the key=value args
	"lock-ok":    true,
	"fsm":        true, // "reason" carries the key=value args
	"fsm-ok":     true,
}

// Note is one parsed //nowa: annotation.
type Note struct {
	Verb   string
	Reason string
	Pos    token.Position
}

// Notes is the per-package annotation index.
type Notes struct {
	// byFileLine maps filename -> line -> notes written on that line.
	byFileLine map[string]map[int][]Note
	// Bad collects grammar violations (unknown verb, missing reason).
	Bad []Finding
}

// parseNotes scans every comment of the package's files. Positions are
// recorded through m.position so lookups and findings agree on filenames.
func parseNotes(m *Module, files []*ast.File) *Notes {
	n := &Notes{byFileLine: make(map[string]map[int][]Note)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, notePrefix) {
					continue
				}
				pos := m.position(c.Pos())
				rest := strings.TrimPrefix(c.Text, notePrefix)
				verb := rest
				reason := ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					verb, reason = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				needReason, known := noteVerbs[verb]
				if !known {
					n.Bad = append(n.Bad, Finding{
						Analyzer: "annotation",
						Pos:      pos,
						Message:  "unknown //nowa: annotation verb \"" + verb + "\"",
					})
					continue
				}
				if needReason && reason == "" {
					n.Bad = append(n.Bad, Finding{
						Analyzer: "annotation",
						Pos:      pos,
						Message:  "//nowa:" + verb + " requires a reason",
					})
					continue
				}
				byLine := n.byFileLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Note)
					n.byFileLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], Note{Verb: verb, Reason: reason, Pos: pos})
			}
		}
	}
	return n
}

// lineNote reports whether verb annotates the given source position:
// either trailing on the same line or on the line directly above.
func (n *Notes) lineNote(pos token.Position, verb string) bool {
	byLine := n.byFileLine[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, note := range byLine[pos.Line] {
		if note.Verb == verb {
			return true
		}
	}
	for _, note := range byLine[pos.Line-1] {
		if note.Verb == verb {
			return true
		}
	}
	return false
}

// declNote reports whether verb annotates a declaration: anywhere in the
// doc comment group, or trailing on the declaration's first line.
func (n *Notes) declNote(m *Module, doc *ast.CommentGroup, declPos token.Pos, verb string) bool {
	_, ok := n.declNoteGet(m, doc, declPos, verb)
	return ok
}

// declNoteGet returns the verb's Note on a declaration (doc comment group
// or the declaration's first line), for verbs that carry arguments.
func (n *Notes) declNoteGet(m *Module, doc *ast.CommentGroup, declPos token.Pos, verb string) (Note, bool) {
	pos := m.position(declPos)
	byLine := n.byFileLine[pos.Filename]
	if byLine == nil {
		return Note{}, false
	}
	for _, note := range byLine[pos.Line] {
		if note.Verb == verb {
			return note, true
		}
	}
	if doc != nil {
		start := m.position(doc.Pos()).Line
		end := m.position(doc.End()).Line
		for l := start; l <= end; l++ {
			for _, note := range byLine[l] {
				if note.Verb == verb {
					return note, true
				}
			}
		}
	}
	return Note{}, false
}

// parseArgs splits an annotation payload of whitespace-separated
// key=value tokens ("level=2 name=allMu"). Tokens without '=' or with an
// empty key/value, and repeated keys, return an error message; "" on
// success.
func parseArgs(s string) (map[string]string, string) {
	args := make(map[string]string)
	for _, tok := range strings.Fields(s) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return nil, "malformed argument " + strconv.Quote(tok) + " (want key=value)"
		}
		if _, dup := args[k]; dup {
			return nil, "duplicate argument key " + strconv.Quote(k)
		}
		args[k] = v
	}
	return args, ""
}

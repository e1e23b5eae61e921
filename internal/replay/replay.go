// Package replay records the scheduler's nondeterministic decisions —
// steal-victim draws, steal and popBottom outcomes, idle-park
// transitions, sync suspensions, chaos rolls — and declares the chaos
// injections and the repro bundle. Each decision point is one fixed-size
// binary event in a per-worker ring, so a failing run — a chaos stress
// hit, a -race report, a hung test — leaves its last steps behind instead
// of evaporating with the process.
//
// The design follows the scheduler's owner-only discipline: worker w's
// ring is written only by the strand holding token w (the same argument
// that makes the victim RNGs and chaos streams synchronisation-free), so
// recording is one packed store plus one position store per event. The
// slots are typed atomics purely so diagnostic readers (DumpState) may
// sample a ring mid-run without a data race; on the write side they are
// uncontended. Recording allocates nothing: the rings are sized at
// construction and overwrite their oldest events when full (the drop
// count is kept, so a truncated log is detectable).
//
// The rings are the scheduler's one in-process event record: besides the
// scheduling decisions they carry strand boundaries, eager publications
// and suspensions, from which DumpState's last-events lines are derived
// and against which the counters are recounted. They hold no time:
// timelines come from runtime/trace, whose regions and tasks the
// scheduler emits at the same sites.
//
// A run is reproduced from its seeds, not from its log: the victim
// streams and the per-(slot, site) chaos streams (Streams) are functions
// of the configuration's seeds, so rerunning a bundle's Meta replays a
// single-worker schedule exactly and gives a multi-worker one the same
// draws at every site, whatever the OS interleaving.
package replay

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind labels one recorded decision point or outcome.
type Kind uint8

const (
	// KNone is the zero Kind; it never appears in a log.
	KNone Kind = iota
	// KRunStart marks a Run beginning (worker 0's stream).
	KRunStart
	// KRunEnd marks a Run completing (worker 0's stream).
	KRunEnd
	// KStealHit is a steal attempt whose popTop succeeded; Arg is the
	// drawn victim (the draw and its outcome are one event).
	KStealHit
	// KStealEmpty is a steal attempt that found the victim's deque empty;
	// Arg is the drawn victim.
	KStealEmpty
	// KStealLost is a steal attempt that lost a race (CAS failure or
	// owner conflict); Arg is the drawn victim.
	KStealLost
	// KPopHit is a popBottom hit at strand end (continuation not stolen).
	KPopHit
	// KPopMiss is a popBottom miss at strand end (implicit sync).
	KPopMiss
	// KPark is an idle thief parking past the fail threshold.
	KPark
	// KWake is a parked thief waking.
	KWake
	// KSuspend is a parent suspending at an explicit sync point.
	KSuspend
	// KResume is a suspended parent resuming; recorded on the worker
	// token the parent resumed with.
	KResume
	// KBlocked marks a parker rendezvous that exhausted its spin budget
	// and took the blocking channel path; Site is a Block* constant.
	KBlocked
	// KChaos is a chaos roll; Site is a Site* constant and Arg is 1 when
	// the injection fired.
	KChaos
	// KPanic is a strand panic being recorded (external stream).
	KPanic
	// KSubmit is a service submission being admitted (external stream);
	// Arg is the truncated submission id.
	KSubmit
	// KSubReject is an admission refusal (external stream): FailFast
	// overload or an admission-time chaos injection; Site distinguishes.
	KSubReject
	// KSubShed is a queued submission evicted oldest-first (external
	// stream); Arg is the victim's id.
	KSubShed
	// KSubStart is a token taking an admitted submission to run it
	// (the taking worker's stream); Arg is the submission id.
	KSubStart
	// KSubDone is a submission's wrapper strand completing (that
	// strand's worker stream); Arg is the submission id.
	KSubDone
	// KInlineRun is a lazy spawn running its child inline: the owner
	// found no steal demand posted on its token and published nothing.
	KInlineRun
	// KPromote is a lazy spawn being promoted to the full eager vessel
	// handoff; Site is a Promote* constant naming the trigger. Recorded
	// on the owner's stream at the promotion point.
	KPromote
	// KSeized is the stall ticker marking a base worker's token
	// seized (external stream); Arg is the seized worker.
	KSeized
	// KSupplement is the lifecycle of a supplemental worker (external
	// stream); Site is a Sup* constant (arm/retire) and Arg the extended
	// slot index.
	KSupplement
	// KWaitBlock is a strand suspending on an external wait (future,
	// channel, barrier); Arg is unused. Where the blocking strand's token
	// goes next (its parent's continuation, a queued wakeup, a thief
	// vessel — see sched's passToken) and who pops a queued wakeup follow
	// from the events around it, so neither pop site records an event of
	// its own.
	KWaitBlock
	// KWaitWake is that wait ending in a resume.
	KWaitWake
	// KWaitAbort is that wait ending in a cancellation.
	KWaitAbort
	// KSpawn is an eager spawn publishing the parent's continuation to
	// the deque (the lazy path records KInlineRun instead, so the two
	// together count every Spawn).
	KSpawn
	// KStrandStart is a vessel beginning to execute a dispatched strand.
	KStrandStart
	// KStrandEnd is that strand's function returning, recorded on the
	// token the strand then holds (not recorded when it panicked).
	KStrandEnd
)

// kindNames names every kind for dumps and traces.
var kindNames = [...]string{
	KRunStart:    "run-start",
	KRunEnd:      "run-end",
	KStealHit:    "steal-hit",
	KStealEmpty:  "steal-empty",
	KStealLost:   "steal-lost",
	KPopHit:      "pop-hit",
	KPopMiss:     "pop-miss",
	KPark:        "park",
	KWake:        "wake",
	KSuspend:     "suspend",
	KResume:      "resume",
	KBlocked:     "blocked",
	KChaos:       "chaos",
	KPanic:       "panic",
	KSubmit:      "submit",
	KSubReject:   "submit-reject",
	KSubShed:     "submit-shed",
	KSubStart:    "submit-start",
	KSubDone:     "submit-done",
	KInlineRun:   "inline-run",
	KPromote:     "promote",
	KSeized:      "seized",
	KSupplement:  "supplement",
	KWaitBlock:   "wait-block",
	KWaitWake:    "wait-wake",
	KWaitAbort:   "wait-abort",
	KSpawn:       "spawn",
	KStrandStart: "strand-start",
	KStrandEnd:   "strand-end",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Parker rendezvous sites, carried in the Site byte of KBlocked events.
const (
	// BlockSpawn: the spawning strand blocked awaiting its resume.
	BlockSpawn uint8 = iota + 1
	// BlockSync: a suspended parent blocked awaiting its last joiner.
	BlockSync
	// BlockDispatch: a pooled vessel blocked awaiting a dispatch.
	BlockDispatch
)

// Promotion triggers, carried in the Site byte of KPromote events.
const (
	// PromoteClaim: the StealInterest chaos site fired at a lazy spawn,
	// impersonating a thief; the spawn took the full eager handoff. (In
	// bundles written before the steal-demand word: a thief's CAS on the
	// spawn's deque record beat the owner's inline commit.)
	PromoteClaim uint8 = iota + 1
	// PromoteInterest: the owner found steal demand posted on its token
	// at a lazy spawn, cleared it and gave this very spawn the full
	// eager handoff, with an eager burst armed for the spawns after it.
	PromoteInterest
	// PromoteSuspend: a strand on the vessel suspended at a sync point,
	// signalling a blocking-prone workload; subsequent spawns go eager.
	PromoteSuspend
)

// Supplement lifecycle stages, carried in the Site byte of KSupplement.
const (
	// SupArm: a supplemental worker was dispatched on an extended slot.
	SupArm uint8 = iota + 1
	// SupRetire: the supplement retired its token (seized worker
	// returned, or the run wound down).
	SupRetire
)

// Admission refusal reasons, carried in the Site byte of KSubReject.
const (
	// SubRejectOverload: the FailFast policy refused at a full window.
	SubRejectOverload uint8 = iota
	// SubRejectChaos: the admission-time chaos injection fired.
	SubRejectChaos
)

// Event is one decoded schedule event. The wire form is a packed 4-byte
// word (Kind<<24 | Site<<16 | Arg), which is also what the rings store.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Site qualifies the kind (chaos site, parker site; 0 otherwise).
	Site uint8
	// Arg carries kind-specific data (victim worker, roll outcome,
	// submission id).
	Arg uint16
}

// String formats the event compactly for dumps.
func (e Event) String() string {
	switch e.Kind {
	case KStealHit, KStealEmpty, KStealLost:
		return fmt.Sprintf("%s(%d)", e.Kind, e.Arg)
	case KChaos:
		fired := "-"
		if e.Arg != 0 {
			fired = "+"
		}
		return fmt.Sprintf("chaos[%s]%s", SiteName(e.Site), fired)
	case KBlocked:
		switch e.Site {
		case BlockSpawn:
			return "blocked[spawn]"
		case BlockSync:
			return "blocked[sync]"
		case BlockDispatch:
			return "blocked[dispatch]"
		}
		return "blocked"
	case KSubmit, KSubShed, KSubStart, KSubDone:
		return fmt.Sprintf("%s(#%d)", e.Kind, e.Arg)
	case KPromote:
		switch e.Site {
		case PromoteClaim:
			return "promote[claim]"
		case PromoteInterest:
			return "promote[interest]"
		case PromoteSuspend:
			return "promote[suspend]"
		}
		return "promote"
	case KSubReject:
		why := "overload"
		if e.Site == SubRejectChaos {
			why = "chaos"
		}
		return fmt.Sprintf("submit-reject[%s](#%d)", why, e.Arg)
	case KSeized:
		return fmt.Sprintf("seized(w%d)", e.Arg)
	case KSupplement:
		stage := "arm"
		if e.Site == SupRetire {
			stage = "retire"
		}
		return fmt.Sprintf("supplement[%s](slot%d)", stage, e.Arg)
	}
	return e.Kind.String()
}

// pack encodes an event into its 4-byte wire word.
func pack(k Kind, site uint8, arg uint16) uint32 {
	return uint32(k)<<24 | uint32(site)<<16 | uint32(arg)
}

// unpack decodes a wire word.
func unpack(u uint32) Event {
	return Event{Kind: Kind(u >> 24), Site: uint8(u >> 16), Arg: uint16(u)}
}

// ring is one worker's event buffer. pos counts every event ever
// recorded; the slot index is pos&mask, so the ring keeps the newest
// cap events and pos-cap is the implied drop count. The fields are
// atomics only for race-free diagnostic sampling — each ring has exactly
// one writer (the strand holding the worker's token, or the external
// mutex holder) — and the struct is padded to two cache lines so
// adjacent workers' rings never false-share.
type ring struct {
	ev  []atomic.Uint32
	pos atomic.Uint64
	_   [128 - 32]byte
}

// The pad arithmetic above is checked at build time: both constants
// underflow unless a ring is exactly one 128-byte unit.
const (
	_ uintptr = unsafe.Sizeof(ring{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(ring{})
)

// Recorder is a per-worker schedule log: workers+1 rings, the last being
// the external stream for events raised off any worker token (panic,
// admission and stall-recovery records), which is mutex-serialised since
// it has no single owner.
type Recorder struct {
	rings   []ring
	workers int
	mask    uint64
	extMu   sync.Mutex
}

// DefaultRingCap is the per-worker event capacity when NewRecorder is
// given none. At 4 bytes per event a worker's ring costs 256 KiB.
const DefaultRingCap = 1 << 16

// externalRingCap bounds the external (off-token) stream; those events
// are rare, so a small ring suffices.
const externalRingCap = 1 << 10

// NewRecorder creates a recorder for the given worker count. perWorkerCap
// is the per-worker event capacity, rounded up to a power of two;
// non-positive selects DefaultRingCap. Once full, a ring overwrites its
// oldest events (see Log.Dropped).
func NewRecorder(workers, perWorkerCap int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if perWorkerCap <= 0 {
		perWorkerCap = DefaultRingCap
	}
	cap := 1
	for cap < perWorkerCap {
		cap <<= 1
	}
	r := &Recorder{
		rings:   make([]ring, workers+1),
		workers: workers,
		mask:    uint64(cap - 1),
	}
	for w := 0; w < workers; w++ {
		r.rings[w].ev = make([]atomic.Uint32, cap)
	}
	r.rings[workers].ev = make([]atomic.Uint32, externalRingCap)
	return r
}

// Workers reports the worker count the recorder was built for.
func (r *Recorder) Workers() int { return r.workers }

// Record appends one event to worker w's ring. Owner-only: the caller
// must hold worker w's token, exactly as for the scheduler's victim RNG.
// It never allocates and never blocks — one packed store, one position
// store. Slots outside the recorder's worker range — the scheduler's
// supplemental workers, which exist only while a base worker is seized —
// are dropped silently: a base-width recorder carries base-worker
// streams only.
//
//nowa:hotpath
func (r *Recorder) Record(w int, k Kind, site uint8, arg uint16) {
	if w < 0 || w >= r.workers {
		return
	}
	rg := &r.rings[w]
	p := rg.pos.Load()
	rg.ev[p&r.mask].Store(pack(k, site, arg))
	rg.pos.Store(p + 1)
}

// RecordExternal appends one event to the external stream — for events
// raised off any worker token (panic, admission and stall-recovery
// records). Mutex serialised; never called from scheduler hot paths.
//
//nowa:coldpath external events are panic, admission and stall-recovery records, all off the token-holding strands
func (r *Recorder) RecordExternal(k Kind, site uint8, arg uint16) {
	r.extMu.Lock()
	rg := &r.rings[r.workers]
	p := rg.pos.Load()
	rg.ev[p&uint64(externalRingCap-1)].Store(pack(k, site, arg))
	rg.pos.Store(p + 1)
	r.extMu.Unlock()
}

// Total reports the number of events recorded across all streams,
// including any that have since been overwritten.
func (r *Recorder) Total() uint64 {
	var n uint64
	for i := range r.rings {
		n += r.rings[i].pos.Load()
	}
	return n
}

// Reset discards all recorded events. The caller must guarantee no
// recording is in flight (runtime idle).
func (r *Recorder) Reset() {
	for i := range r.rings {
		r.rings[i].pos.Store(0)
	}
}

// window bounds the newest n positions still held by the ring: [lo, hi).
func (rg *ring) window(n int) (lo, hi uint64) {
	hi = rg.pos.Load()
	return hi - min(hi, uint64(len(rg.ev)), uint64(n)), hi
}

// lastRing decodes the newest n events of one ring, oldest first.
func (r *Recorder) lastRing(rg *ring, n int) []Event {
	lo, hi := rg.window(n)
	mask := uint64(len(rg.ev) - 1)
	out := make([]Event, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, unpack(rg.ev[i&mask].Load()))
	}
	return out
}

// LastEvents decodes the newest n events of worker w's ring, oldest
// first. Safe to call mid-run (the slots are atomics); the result is a
// best-effort snapshot, exact when the worker is quiescent. Worker
// r.Workers() addresses the external stream.
func (r *Recorder) LastEvents(w, n int) []Event {
	if w < 0 || w >= len(r.rings) || n <= 0 {
		return nil
	}
	return r.lastRing(&r.rings[w], n)
}

// FormatEvents renders a compact one-line summary of events for dumps.
func FormatEvents(evs []Event) string {
	if len(evs) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for i, e := range evs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// Snapshot decodes the recorder into a Log. Call only when the observed
// runtime is idle — mid-run snapshots see rings still being written.
func (r *Recorder) Snapshot() *Log {
	l := &Log{
		PerWorker: make([][]Event, r.workers),
		Dropped:   make([]uint64, r.workers),
	}
	for w := 0; w < r.workers; w++ {
		rg := &r.rings[w]
		l.Dropped[w], _ = rg.window(len(rg.ev))
		l.PerWorker[w] = r.lastRing(rg, len(rg.ev))
	}
	l.External = r.lastRing(&r.rings[r.workers], externalRingCap)
	return l
}

// Log is a decoded schedule capture: per-worker event streams in
// recording order (oldest first), the external stream, and the number of
// events each worker's ring overwrote before the snapshot. A log with a
// nonzero Dropped entry has lost its prefix.
type Log struct {
	PerWorker [][]Event
	External  []Event
	Dropped   []uint64
}

// Total reports the number of events present in the log.
func (l *Log) Total() int {
	n := len(l.External)
	for _, evs := range l.PerWorker {
		n += len(evs)
	}
	return n
}

// Truncated reports whether any worker's ring overwrote events before
// the snapshot (the log is missing its oldest entries).
func (l *Log) Truncated() bool {
	for _, d := range l.Dropped {
		if d > 0 {
			return true
		}
	}
	return false
}

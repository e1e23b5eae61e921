// Package chaos is the one home of fault injection: the Chaos block, its
// table of sites, the per-(slot, site) Streams and the rule by which a
// roll fires. A run is reproduced from its seeds: a rerun of a repro
// bundle's meta gets the same draws at every site, whatever the OS
// interleaving.
package chaos

import (
	"fmt"
	"runtime"
	"unsafe"
)

// Chaos configures seeded, deterministic fault injection at the
// protocol's race windows — the §III-C hazard analysis turned into a
// stress harness. It is both the scheduler's configuration block
// (sched.Config.Chaos) and the chaos block of a repro bundle's meta, so
// a captured trial and the run it describes cannot drift apart.
// Every perturbation except LeakVessel is *sound*: it only delays a
// strand or abandons a steal attempt, both of which the protocol must
// tolerate anyway, so any invariant violation the chaos suite surfaces
// is a real scheduler bug, not an artifact of the injection. LeakVessel
// is the documented exception — a planted bug for validating the
// failure-capture pipeline (see its comment).
//
// Rates are probabilities in units of 1/1024 per pass through the
// corresponding window; the draws come from Streams, one xorshift64
// stream per (slot, site) seeded from Seed, so chaos never perturbs
// victim selection and a given (Seed, schedule) is reproducible modulo
// the OS scheduler.
//
// Every injection is declared once: a rate field here — its tag is its
// key in a bundle's meta JSON, durations are microsecond counts so the
// JSON stays unit-explicit and the struct needs no encoder of its own —
// a Site constant and its row of sites. The dump names, "nothing armed",
// the duration defaults and the torture shrinker's drop/halve pass are
// loops over that table, so adding an injection is one field, one
// constant, one row and the call site that rolls it.
type Chaos struct {
	// Seed seeds the per-slot, per-site chaos streams (0: inherit Config.Seed).
	Seed int64 `json:"seed"`
	// StealDelay delays a thief between victim selection eligibility and
	// its popTop attempt, stretching the steal/pop race window.
	StealDelay int `json:"steal_delay,omitempty"`
	// StealFail abandons a steal attempt outright (counted as a failed
	// steal), modelling lost CAS races and empty-victim misses.
	StealFail int `json:"steal_fail,omitempty"`
	// PopBottomDelay delays a finishing strand just before its popBottom,
	// widening the window in which a thief can turn the would-be hit into
	// a genuine miss — the exact §III-C hazardous interleaving.
	PopBottomDelay int `json:"pop_bottom_delay,omitempty"`
	// SyncDelay delays a parent just before the explicit-sync counter
	// restore, racing it against late-joining children (Eq. 5's window).
	SyncDelay int `json:"sync_delay,omitempty"`
	// LeakVessel is the one deliberately UNSOUND injection: with this
	// probability a finishing vessel is dropped instead of returned to a
	// free list, so the idle-time reconciliation reports VesselsLeaked >
	// 0 — a real invariant violation, planted on purpose. It exists so
	// the failure-capture pipeline (nowa-torture → repro bundle → meta
	// rerun) can be exercised end to end against a bug that is
	// known to be there; it must stay zero in any suite that asserts the
	// soundness property of the other injections.
	LeakVessel int `json:"leak_vessel,omitempty"`
	// SubmitFail makes service-mode admission (Submit) behave as if the
	// queue were overloaded: the submission is refused with an
	// *OverloadedError before touching the queue. Sound — a refusal is
	// one of Submit's documented outcomes whatever the policy. The draws
	// come from the service's own mutex-guarded streams (admission runs
	// off any worker token).
	SubmitFail int `json:"submit_fail,omitempty"`
	// StealInterest makes a would-be lazy spawn behave as if a thief had
	// posted steal demand on its token: the spawn takes the full eager
	// vessel handoff instead of running the child inline.
	// At 1024 every spawn is promoted, forcing the eager path under a
	// lazy-mode configuration. Sound by construction — the eager handoff
	// is the semantics lazy promotion must be equivalent to.
	StealInterest int `json:"steal_interest,omitempty"`
	// StallWorker pins the strand holding a worker token for StallForUS at
	// the strand-finish window, modelling a blocking syscall or a
	// pathological user function seizing its OS thread mid-run — the
	// fault Config.StallThreshold recovery exists to survive. Sound: the
	// strand merely runs long, which the protocol must tolerate; with
	// recovery armed the stalled token is seized and supplemented, and
	// the injection lets the fault campaign measure throughput with and
	// without supplementation under identical schedules.
	StallWorker int `json:"stall_worker,omitempty"`
	// StallForUS is the injected stall duration in microseconds (default
	// 10ms when StallWorker is set).
	StallForUS int64 `json:"stall_for_us,omitempty"`
	// SubmitLatency delays an admission attempt by SubmitLatencyForUS
	// between Submit's closing check and the queue's tryAdmit, widening
	// the window in which Close's drain races an admission (the
	// admitClosed outcome). Sound: admission latency carries no protocol
	// obligations. Like SubmitFail, the draws come from the service's
	// mutex-guarded streams.
	SubmitLatency int `json:"submit_latency,omitempty"`
	// SubmitLatencyForUS is the injected admission delay in microseconds
	// (default 1ms when SubmitLatency is set).
	SubmitLatencyForUS int64 `json:"submit_latency_for_us,omitempty"`
	// AbortWait makes a strand registering for an external blocking wait
	// (future await, channel send/receive, barrier arrival) attempt to
	// cancel its own waiter cell mid-registration and transparently
	// retry the operation — the planted mid-wait abort that exercises
	// the abort-vs-resume cell arbitration. Sound: a self-abort that
	// wins the cell is indistinguishable from a caller-context
	// cancellation followed by an immediate retry, which the primitives
	// must tolerate; one that loses proves a wakeup was in flight and
	// the strand simply takes it. No counter or semantic state changes
	// hang off the injection itself.
	AbortWait int `json:"abort_wait,omitempty"`
	// WakeupDelay delays a resumer between winning a waiter's cell and
	// delivering the wakeup, widening the window in which the waiter's
	// abort arm must lose the cell CAS and wait for the in-flight
	// resume. Sound: the delivery edge carries no deadline, only the
	// exactly-once obligation, which the delay does not touch. Strand
	// resumers only — AfterFunc abort arms hold no worker token and
	// draw no chaos.
	WakeupDelay int `json:"wakeup_delay,omitempty"`
	// DelaySpins is the number of scheduler yields per injected delay
	// (default 16).
	DelaySpins int `json:"delay_spins,omitempty"`
}

// Chaos roll sites, each indexing its word of a slot's Streams. Each
// constant's row of sites names the rate field that documents the
// window.
const (
	SiteStealFail uint8 = iota + 1
	SiteStealDelay
	SitePopBottom
	SiteSyncDelay
	SiteLeakVessel
	SiteSubmitFail
	SiteStealInterest
	SiteStallWorker
	SiteSubmitLatency
	SiteAbortWait
	SiteWakeDelay
	// NumSites bounds the site IDs: they run 1..NumSites-1.
	NumSites
)

// sites is the one declaration of the injection set: name is the site's
// name in dumps and shrinker output, rate the offset of its rate field
// in Chaos. An injection that lasts a configured time also names its
// duration field (dur; 0 for none) and the microseconds used when the
// rate is set without one. external marks the sites rolled on the
// admission path: they fire in service mode only and roll on the
// service's own streams.
var sites = [NumSites]struct {
	name         string
	rate, dur    uintptr
	durDefaultUS int64
	external     bool
}{
	SiteStealFail:     {name: "steal-fail", rate: unsafe.Offsetof(Chaos{}.StealFail)},
	SiteStealDelay:    {name: "steal-delay", rate: unsafe.Offsetof(Chaos{}.StealDelay)},
	SitePopBottom:     {name: "pop-delay", rate: unsafe.Offsetof(Chaos{}.PopBottomDelay)},
	SiteSyncDelay:     {name: "sync-delay", rate: unsafe.Offsetof(Chaos{}.SyncDelay)},
	SiteLeakVessel:    {name: "leak-vessel", rate: unsafe.Offsetof(Chaos{}.LeakVessel)},
	SiteSubmitFail:    {name: "submit-fail", rate: unsafe.Offsetof(Chaos{}.SubmitFail), external: true},
	SiteStealInterest: {name: "steal-interest", rate: unsafe.Offsetof(Chaos{}.StealInterest)},
	SiteStallWorker: {name: "stall-worker", rate: unsafe.Offsetof(Chaos{}.StallWorker),
		dur: unsafe.Offsetof(Chaos{}.StallForUS), durDefaultUS: 10_000},
	SiteSubmitLatency: {name: "submit-latency", rate: unsafe.Offsetof(Chaos{}.SubmitLatency),
		dur: unsafe.Offsetof(Chaos{}.SubmitLatencyForUS), durDefaultUS: 1_000, external: true},
	SiteAbortWait: {name: "abort-wait", rate: unsafe.Offsetof(Chaos{}.AbortWait)},
	SiteWakeDelay: {name: "wake-delay", rate: unsafe.Offsetof(Chaos{}.WakeupDelay)},
}

// SiteName names a chaos site for dumps and shrinker output.
func SiteName(s uint8) string {
	if s == 0 || s >= NumSites {
		return fmt.Sprintf("site%d", s)
	}
	return sites[s].name
}

// SiteExternal reports whether the site is rolled on the admission path
// (service mode only, on the service's own streams).
func SiteExternal(s uint8) bool { return sites[s].external }

// Rate reads the injection rate of one site through its row.
//
//nowa:hotpath
func (c *Chaos) Rate(s uint8) int {
	return *(*int)(unsafe.Add(unsafe.Pointer(c), sites[s].rate))
}

// dur addresses the site's duration field; nil for a site without one
// (no row's duration is the struct's first field).
func (c *Chaos) dur(s uint8) *int64 {
	if sites[s].dur == 0 {
		return nil
	}
	return (*int64)(unsafe.Add(unsafe.Pointer(c), sites[s].dur))
}

// SetRate sets the injection rate of one site. Disarming a site also
// clears its duration, so a shrunk bundle advertises no dead knob.
func (c *Chaos) SetRate(s uint8, rate int) {
	*(*int)(unsafe.Add(unsafe.Pointer(c), sites[s].rate)) = rate
	if d := c.dur(s); d != nil && rate == 0 {
		*d = 0
	}
}

// Zero reports whether nothing is armed (Seed and DelaySpins alone
// inject nothing).
func (c *Chaos) Zero() bool {
	for s := uint8(1); s < NumSites; s++ {
		if c.Rate(s) != 0 {
			return false
		}
	}
	return true
}

// Streams is one scheduling slot's chaos draws: an xorshift64 word per
// site, so the k-th roll at a site on a slot is the same whatever the
// other sites rolled in between, and a roll added or dropped at one site
// shifts no other site's draws. Owner-only, like the slot's token. The
// twelve words are padded to 128 bytes so adjacent slots' blocks never
// false-share.
type Streams struct {
	s [NumSites]uint64
	_ [128 - 8*NumSites]byte
}

// The pad arithmetic is checked at build time: both constants underflow
// unless Streams is exactly 128 bytes.
const (
	_ uintptr = unsafe.Sizeof(Streams{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(Streams{})
)

// Seed seeds every site's word from (seed, slot, site), through the
// splitmix64 finaliser so neighbouring streams do not start correlated.
func (st *Streams) Seed(seed int64, slot int) {
	for s := range st.s {
		z := uint64(seed)*0xbf58476d1ce4e5b9 + uint64(slot)<<8 + uint64(s) + 1
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		st.s[s] = z ^ z>>31 | 1 // xorshift never leaves 0
	}
}

// Roll advances site's stream and reports whether an injection armed at
// rate (in 1/1024) fires.
//
//nowa:hotpath
func (st *Streams) Roll(site uint8, rate int) bool {
	x := st.s[site]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	st.s[site] = x
	return int(x&1023) < rate
}

// Fire rolls site on st at the rate c arms it with and reports whether
// the injection fires. A zero rate draws nothing.
//
//nowa:hotpath
func (st *Streams) Fire(c *Chaos, site uint8) bool {
	rate := c.Rate(site)
	return rate > 0 && st.Roll(site, rate)
}

// Delay yields the strand DelaySpins times, long enough for a
// concurrently running thief or joiner to win the disputed race.
func (c *Chaos) Delay() {
	for i := 0; i < c.DelaySpins; i++ {
		runtime.Gosched()
	}
}

// PreSteal runs the thief-side injections and reports true when the
// steal attempt must be abandoned as a failed steal. A StealFail hit
// returns without drawing StealDelay.
func (st *Streams) PreSteal(c *Chaos) bool {
	if st.Fire(c, SiteStealFail) {
		return true
	}
	if st.Fire(c, SiteStealDelay) {
		c.Delay()
	}
	return false
}

// WithDefaults returns a normalised copy for a runtime to use: a zero
// Seed inherits seed, DelaySpins defaults to 16, and an armed site with
// a duration knob left unset gets its row's default.
func (c Chaos) WithDefaults(seed int64) *Chaos {
	if c.Seed == 0 {
		c.Seed = seed
	}
	if c.DelaySpins <= 0 {
		c.DelaySpins = 16
	}
	for s := uint8(1); s < NumSites; s++ {
		if d := c.dur(s); d != nil && c.Rate(s) > 0 && *d <= 0 {
			*d = sites[s].durDefaultUS
		}
	}
	return &c
}

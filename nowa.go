// Package nowa is a fork/join concurrency platform for Go with a
// wait-free continuation-stealing-style scheduler, reproducing the runtime
// system of "Nowa: A Wait-Free Continuation-Stealing Concurrency Platform"
// (Schmaus et al., IPDPS 2021).
//
// The programming model mirrors the paper's spawn/sync keywords:
//
//	func fib(c nowa.Ctx, n int) int {
//		if n < 2 {
//			return n
//		}
//		var a int
//		s := c.Scope()
//		s.Spawn(func(c nowa.Ctx) { a = fib(c, n-1) })
//		b := fib(c, n-2)
//		s.Sync()
//		return a + b
//	}
//
//	rt := nowa.New(nowa.VariantNowa, runtime.NumCPU())
//	defer nowa.Close(rt)
//	var result int
//	rt.Run(func(c nowa.Ctx) { result = fib(c, 35) })
//
// Besides the flagship wait-free runtime, the package exposes every
// comparator evaluated in the paper — the lock-based Fibril protocol, a
// Cilk Plus-like bounded-stack variant, a TBB-like child-stealing runtime
// and two OpenMP-like runtimes — all running the same programs, which is
// the basis of the reproduction benchmarks in bench_test.go.
package nowa

import (
	"context"
	"fmt"
	"time"

	"nowa/internal/api"
	"nowa/internal/childsteal"
	"nowa/internal/resilience"
	"nowa/internal/sched"
)

// Ctx is the execution context passed to every strand.
type Ctx = api.Ctx

// Scope coordinates the spawned children of one function instance; it
// must be Synced before the function that created it returns.
type Scope = api.Scope

// Runtime executes fork/join computations.
type Runtime = api.Runtime

// Variant selects one of the runtime systems evaluated in the paper.
type Variant int

const (
	// VariantNowa is the wait-free join protocol with the lock-free
	// Chase–Lev deque — the paper's contribution.
	VariantNowa Variant = iota
	// VariantNowaTHE is the wait-free protocol on the Cilk-5 THE deque
	// (the §V-C ablation).
	VariantNowaTHE
	// VariantFibril is the lock-based baseline (coupled deque and frame
	// locks).
	VariantFibril
	// VariantCilkPlus is VariantFibril with a bounded stack pool.
	VariantCilkPlus
	// VariantTBB is the child-stealing comparator.
	VariantTBB
	// VariantLibGOMP is the central-queue OpenMP-like comparator.
	VariantLibGOMP
	// VariantLibOMPUntied is the work-stealing OpenMP-like comparator
	// with untied tasks.
	VariantLibOMPUntied
	// VariantLibOMPTied is the same with tied tasks.
	VariantLibOMPTied
)

// variantNames holds the report names in Variant order: the
// continuation-stealing runtimes' table, then the comparators'.
var variantNames = append(sched.Variants(), childsteal.Variants()...)

// String returns the variant's report name.
func (v Variant) String() string {
	if v >= 0 && int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists every runtime variant in evaluation order.
func Variants() []Variant {
	vs := make([]Variant, len(variantNames))
	for i := range vs {
		vs[i] = Variant(i)
	}
	return vs
}

// New creates a runtime of the given variant with the given worker count.
func New(v Variant, workers int) Runtime {
	if cfg, ok := schedConfig(v, workers); ok {
		rt, err := sched.New(cfg)
		if err != nil {
			panic(err)
		}
		return rt
	}
	rt, err := childsteal.New(v.String(), workers, nil)
	if err != nil {
		panic("nowa: unknown variant " + v.String())
	}
	return rt
}

// schedConfig maps the four continuation-stealing variants onto
// scheduler configurations through sched.VariantConfig, which knows them
// by the names String prints; the second result is false for the
// non-vessel comparators.
func schedConfig(v Variant, workers int) (sched.Config, bool) {
	cfg, err := sched.VariantConfig(v.String(), workers)
	return cfg, err == nil
}

// SpawnPolicy selects how the continuation-stealing runtimes map
// spawned children onto execution goroutines (vessels); see the
// internal/sched SpawnMode documentation for the full semantics.
type SpawnPolicy = sched.SpawnMode

const (
	// SpawnAdaptive (the default everywhere) spawns lazily — the child
	// runs inline and nothing is published while no thief has posted
	// steal demand on the token, paying no goroutine handoff — and
	// converts to eager bursts when a thief posts demand or the vessel
	// suspends.
	SpawnAdaptive = sched.SpawnAdaptive
	// SpawnEager pays the full vessel handoff on every spawn: the
	// pre-promotion behaviour. Required when a child blocks on a signal
	// that only the code after the Spawn call can provide.
	SpawnEager = sched.SpawnEager
)

// Limits configures a continuation-stealing runtime beyond its variant:
// the spawn policy and stall recovery. No vessel or stack budget is
// offered: a suspension always gives its worker token away, so the
// vessel population stays bounded by the computation itself, and the
// stack pool is bounded only by the cilkplus comparator, whose bound is
// the paper's (§II-C).
type Limits struct {
	// Spawn selects the spawn policy (default SpawnAdaptive).
	Spawn SpawnPolicy
	// StallThreshold arms stall recovery: a worker whose heartbeat goes
	// stale this long while runnable work exists is seized and a
	// supplemental worker dispatched in its stead, at most one per
	// worker (see internal/sched stall.go). Zero (the default) disables
	// recovery at zero cost.
	StallThreshold time.Duration
}

// ResourceStats is a snapshot of a runtime's resource accounting; see
// Resources.
type ResourceStats = sched.Stats

// NewLimited creates a continuation-stealing runtime of the given
// variant configured by lim. Only the vessel-model variants
// (VariantNowa, VariantNowaTHE, VariantFibril, VariantCilkPlus) take
// Limits; NewLimited panics for the comparators without one.
func NewLimited(v Variant, workers int, lim Limits) Runtime {
	cfg, ok := schedConfig(v, workers)
	if !ok {
		panic("nowa: NewLimited requires a continuation-stealing variant (vessel model); got " + v.String())
	}
	cfg.Spawn = lim.Spawn
	cfg.StallThreshold = lim.StallThreshold
	rt, err := sched.New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Resources reports a runtime's resource accounting when it keeps one
// (the continuation-stealing runtimes do; the comparators report false).
func Resources(rt Runtime) (ResourceStats, bool) {
	if s, ok := rt.(*sched.Runtime); ok {
		return s.Stats(), true
	}
	return ResourceStats{}, false
}

// Resilience re-exports: client-side retry over a serving runtime's
// Submit. See internal/resilience for the full semantics.
type (
	// ResiliencePolicy parameterises a Resilient wrapper: bounded
	// retries with capped exponential backoff honouring the service's
	// retry-after hints and the caller's context deadline.
	ResiliencePolicy = resilience.Policy
	// Resilient is the wrapper; call Do instead of Submit.
	Resilient = resilience.Resilient
	// ResilienceOutcome reports what one resilient call spent.
	ResilienceOutcome = resilience.Outcome
)

// NewResilient wraps a serving-capable runtime with a resilience
// policy. Only the vessel-model variants serve, so only their runtimes
// are accepted; NewResilient panics for the comparators.
func NewResilient(rt Runtime, pol ResiliencePolicy) *Resilient {
	s, ok := rt.(resilience.Submitter)
	if !ok {
		panic("nowa: NewResilient requires a serving-capable (vessel model) runtime")
	}
	return resilience.New(s, pol)
}

// Serial returns the serial elision: Spawn calls inline, Sync is a no-op.
// It defines the T_s baseline of every speedup measurement.
func Serial() Runtime { return api.Serial{} }

// Close releases a runtime's resources when it has one of those to
// release (the continuation-stealing runtimes pool goroutine vessels).
// On a serving runtime Close drains gracefully first: admission stops,
// queued and in-flight submissions complete up to the configured drain
// deadline, and the remainder is force-cancelled. Safe to call on any
// Runtime.
func Close(rt Runtime) {
	if c, ok := rt.(interface{ Close() }); ok {
		c.Close()
	}
}

// Service mode turns a continuation-stealing runtime into a long-lived
// server: StartService launches an internal run, and from then on
// external goroutines feed it work through Submit — a worker with
// nothing to steal takes each submission and runs it as a top-level
// strand of that run, with its own future, cancellation, and panic
// isolation. A bounded
// admission queue in front applies backpressure; its overload behavior
// is policy-selectable.

// ServiceConfig parameterises StartService: admission queue depth,
// overload policy, and Close's drain deadline.
type ServiceConfig = sched.ServiceConfig

// SubmitOpts carries a submission's deadline.
type SubmitOpts = sched.SubmitOpts

// Submission is the future of one submitted task; see Wait, Done, Err.
type Submission = sched.Submission

// OverloadPolicy selects Submit's behaviour at a full admission queue.
type OverloadPolicy = sched.OverloadPolicy

// ServiceStats is a point-in-time snapshot of service-mode accounting.
type ServiceStats = sched.ServiceStats

// OverloadedError is the concrete admission refusal (ErrOverloaded with
// a RetryAfter hint); reach it with errors.As to honour backpressure.
type OverloadedError = sched.OverloadedError

// StrandPanic is the wrapped panic a run or submission resolves with
// when a strand panics; Suppressed counts sibling panics folded into it.
type StrandPanic = api.StrandPanic

const (
	// OverloadBlock makes Submit wait for a queue slot.
	OverloadBlock = sched.OverloadBlock
	// OverloadFailFast makes Submit return ErrOverloaded immediately,
	// with a retry-after hint (see sched.OverloadedError).
	OverloadFailFast = sched.OverloadFailFast
	// OverloadShed admits new work by evicting the oldest queued
	// submission, whose future resolves with ErrShed.
	OverloadShed = sched.OverloadShed
)

// Service-mode errors; see the sched package for the full taxonomy.
var (
	// ErrNotServing: Submit/StartService-dependent call on a runtime
	// that is not serving (or cannot serve — the comparators without a
	// vessel model never can).
	ErrNotServing = sched.ErrNotServing
	// ErrServiceClosed: Submit after Close began draining.
	ErrServiceClosed = sched.ErrServiceClosed
	// ErrOverloaded: admission refused under the FailFast policy. The
	// concrete error is a *sched.OverloadedError with a RetryAfter hint.
	ErrOverloaded = sched.ErrOverloaded
	// ErrShed: the submission was evicted from the queue under overload
	// (wraps ErrOverloaded).
	ErrShed = sched.ErrShed
	// ErrDrainForced: Close's drain deadline elapsed and the submission
	// was force-cancelled.
	ErrDrainForced = sched.ErrDrainForced
)

// StartService switches a continuation-stealing runtime into service
// mode. Only the vessel-model variants can serve; the comparators
// return ErrNotServing.
func StartService(rt Runtime, cfg ServiceConfig) error {
	s, ok := rt.(*sched.Runtime)
	if !ok {
		return ErrNotServing
	}
	return s.StartService(cfg)
}

// Submit hands one task to a serving runtime and returns its future.
// Callable from any goroutine, concurrently.
func Submit(rt Runtime, task func(Ctx), opts SubmitOpts) (*Submission, error) {
	return SubmitCtx(rt, nil, task, opts)
}

// SubmitCtx is Submit bound to a caller context: cancelling ctx cancels
// the submission (queued: resolved without running; mid-flight:
// cooperatively, like RunCtx). A nil ctx is Submit.
func SubmitCtx(rt Runtime, ctx context.Context, task func(Ctx), opts SubmitOpts) (*Submission, error) {
	s, ok := rt.(*sched.Runtime)
	if !ok {
		return nil, ErrNotServing
	}
	return s.SubmitCtxOpts(ctx, task, opts)
}

// ServiceInfo reports a serving runtime's admission and outcome
// accounting; false when rt is not (and was never) serving.
func ServiceInfo(rt Runtime) (ServiceStats, bool) {
	if s, ok := rt.(*sched.Runtime); ok {
		return s.ServiceStats()
	}
	return ServiceStats{}, false
}

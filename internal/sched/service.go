package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"nowa/internal/api"
	"nowa/internal/cqs"
	"nowa/internal/replay"
)

// Service-mode errors. ErrShed wraps ErrOverloaded so a caller that
// only distinguishes "overload casualty" from "ran" needs one check.
var (
	// ErrNotServing is returned by Submit on a runtime that has not
	// entered service mode (StartService).
	ErrNotServing = errors.New("sched: runtime is not serving (call StartService first)")
	// ErrServiceClosed is returned by Submit once Close has begun
	// draining the service.
	ErrServiceClosed = errors.New("sched: service closed")
	// ErrOverloaded reports an admission refusal under the FailFast
	// policy (or an admission-time chaos injection). The concrete error
	// is an *OverloadedError carrying a retry-after hint.
	ErrOverloaded = errors.New("sched: admission queue overloaded")
	// ErrShed resolves the future of a queued submission that was
	// evicted oldest-first to admit newer work (the Shed policy).
	ErrShed = fmt.Errorf("sched: submission shed under overload: %w", ErrOverloaded)
	// ErrDrainForced is the cancellation cause installed when a Close
	// drain exceeds ServiceConfig.DrainTimeout and the remaining
	// submissions are force-cancelled through the RunCtx machinery.
	ErrDrainForced = errors.New("sched: service drain deadline elapsed; remaining submissions force-cancelled")
)

// OverloadedError is the concrete FailFast refusal: RetryAfter is the
// smoothed completion interval of recent submissions — roughly how long
// until a queue slot frees — so a client can back off proportionally
// instead of guessing. errors.Is(err, ErrOverloaded) matches it.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("sched: admission queue overloaded (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for OverloadedError.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// OverloadPolicy selects Submit's behaviour when the admission queue is
// full.
type OverloadPolicy int

const (
	// OverloadBlock makes Submit wait for a queue slot (abortable by
	// the submission's context or deadline, and by Close).
	OverloadBlock OverloadPolicy = iota
	// OverloadFailFast makes Submit return an *OverloadedError
	// immediately, with a retry-after hint.
	OverloadFailFast
	// OverloadShed admits the new submission by evicting the oldest
	// queued one, whose future resolves with ErrShed.
	OverloadShed
)

// String names the policy.
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadFailFast:
		return "failfast"
	case OverloadShed:
		return "shed"
	}
	return "block"
}

// ServiceConfig parameterises StartService.
type ServiceConfig struct {
	// QueueDepth bounds the admission queue. Default 256.
	QueueDepth int
	// Policy selects the overload behaviour at a full queue (default
	// OverloadBlock).
	Policy OverloadPolicy
	// DrainTimeout bounds Close's graceful drain: once it elapses the
	// remaining submissions are force-cancelled via the run context.
	// Zero selects the default (5s); negative waits indefinitely.
	DrainTimeout time.Duration
}

func (c *ServiceConfig) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// SubmitOpts parameterises one submission.
type SubmitOpts struct {
	// Deadline, if nonzero, bounds the submission: expiry while queued
	// resolves the future with context.DeadlineExceeded without running
	// the task; expiry mid-flight cancels cooperatively (Ctx.Err fires,
	// Spawn degrades inline) exactly like RunCtx.
	Deadline time.Time
}

// Submission is the future of one submitted task. Wait (or Done + Err)
// observes the outcome: nil for success, *api.StrandPanic if the task
// panicked, the submission context's error if it was cancelled or
// expired, ErrShed if it was evicted while queued.
//
//nowa:nopad submissions are individually heap-allocated, one per Submit; no two are ever adjacent in an array
type Submission struct {
	task func(api.Ctx)

	// cs is the submission's one cancellation view, over its effective
	// context: the service context, or the caller's context linked to it,
	// bounded by the deadline when one is given. Every strand of the
	// submission answers to it (Proc.cancel). Begun with a nil wake: no
	// AfterFunc per submission.
	cs api.CancelState
	// cancel releases what the effective context holds beyond the
	// service context — its deadline timer, its link to the service
	// context; nil when it holds nothing.
	cancel context.CancelFunc
	// traceTask is the submission's runtime/trace task, carried by the
	// effective context; nil when tracing was off at Submit.
	traceTask *rtrace.Task

	done chan struct{}
	err  error  // written before done closes
	id   uint16 // truncated sequence number, for schedule-log events

	// pan collects this submission's strand panics: the first is kept,
	// later ones are tallied on it via StrandPanic.Suppress — the same
	// first-wins protocol as a batch Run, but per submission.
	panMu sync.Mutex
	pan   *api.StrandPanic
}

// Done returns a channel closed when the submission resolves.
func (s *Submission) Done() <-chan struct{} { return s.done }

// Wait blocks until the submission resolves and returns its outcome.
func (s *Submission) Wait() error {
	<-s.done
	return s.err
}

// Err returns the submission's outcome once resolved; nil before that
// (poll Done to distinguish "still running" from "succeeded").
func (s *Submission) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// notePanic records one strand panic against this submission.
func (s *Submission) notePanic(v any, stack []byte) {
	s.panMu.Lock()
	if s.pan == nil {
		s.pan = &api.StrandPanic{Value: v, Stack: stack}
	} else {
		s.pan.Suppress(v)
	}
	s.panMu.Unlock()
}

// takePanic returns the submission's collected panic, if any.
func (s *Submission) takePanic() *api.StrandPanic {
	s.panMu.Lock()
	p := s.pan
	s.panMu.Unlock()
	return p
}

// outcomeErr reads the submission's cancellation outcome, preferring
// the context *cause* over the bare error so callers can tell a drain
// force-cancel (ErrDrainForced) or deadline expiry from an external
// cancel. Must run before resolve detaches the context.
func (s *Submission) outcomeErr() error {
	err := s.cs.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(s.cs.Context()); cause != nil {
		return cause
	}
	return err
}

// resolve releases the submission's effective context and runtime/trace
// task, stores the outcome and wakes waiters. It is the one place a
// submission is released, and exactly one path calls it: the admission
// ring hands a queued submission to one getter, a taking token or a
// shedding producer; a refused one never reaches the ring.
func (s *Submission) resolve(err error) {
	if s.traceTask != nil {
		s.traceTask.End()
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.cs.End()
	s.err = err
	close(s.done)
}

// runSubmission is a submission's top strand, started by the token that
// took it. The dispatch already bound the strand's Proc to the
// submission (children inherit it, so every strand of this task routes
// panics and cancellation there); this contains the task's panic: unlike
// a batch Run, a service panic resolves only this submission's future.
func runSubmission(c api.Ctx) {
	p := c.(*Proc)
	rt, s := p.rt, p.sub
	defer func() {
		if r := recover(); r != nil {
			s.notePanic(r, debug.Stack())
		}
		if rt.recordOn {
			// Owner-only: this strand still holds p.worker's token.
			rt.rep.Record(p.worker, replay.KSubDone, 0, s.id)
		}
		rt.svc.Load().complete(s)
	}()
	s.task(p)
}

// service is the long-lived state of a runtime in service mode: the
// admission queue, the service run's context, and the submission
// accounting. One per StartService, discarded at Close.
//
//nowa:nopad one service per runtime at a time; a control-path singleton, not per-worker contended state
type service struct {
	rt     *Runtime
	cfg    ServiceConfig
	ctx    context.Context
	cancel context.CancelCauseFunc

	adm admitQueue
	// rootq is where the service run's root strand waits for the drain
	// (serviceRoot); wakeRoot resumes it.
	rootq   *cqs.Queue
	runDone chan struct{}
	runErr  error // runInternal's result, set before runDone closes
	// closing latches the drain decision: exactly one Close wins the CAS
	// and runs the wind-down; the latch never resets for the service's
	// lifetime.
	//nowa:fsm phases=false,true transitions=false>true
	closing atomic.Bool

	subSeq   atomic.Uint32
	inflight atomic.Int64

	completed atomic.Int64
	panicked  atomic.Int64
	cancelled atomic.Int64

	// Completion-interval EWMA feeding the FailFast retry-after hint:
	// lastDoneNs is the previous completion's wall clock, ewmaNs the
	// smoothed gap between completions.
	lastDoneNs atomic.Int64
	ewmaNs     atomic.Int64

	// chaos backs the admission-time injections. Admission runs on
	// external goroutines with no worker token, so unlike the per-slot
	// streams these are mutex-guarded.
	chaosMu sync.Mutex
	chaos   replay.Streams
}

// StartService switches the runtime into service mode: a long-lived
// internal run in which every worker token with no deque work takes the
// next admitted submission and runs it as a top-level strand. From then
// on external goroutines feed work through Submit/SubmitCtx; Run/RunCtx
// panic (the service occupies the runtime); Close gains graceful-drain
// semantics.
func (rt *Runtime) StartService(cfg ServiceConfig) error {
	cfg.fill()
	rt.allMu.Lock()
	closed := rt.closed
	rt.allMu.Unlock()
	if closed {
		return errors.New("sched: StartService on closed Runtime")
	}
	svc := &service{rt: rt, cfg: cfg, rootq: cqs.NewQueue(), runDone: make(chan struct{})}
	svc.adm.init(cfg.QueueDepth, cfg.Policy)
	if rt.chaosOn {
		svc.chaos.Seed(rt.cfg.Chaos.Seed, -1)
	}
	svc.ctx, svc.cancel = context.WithCancelCause(context.Background())
	if !rt.svc.CompareAndSwap(nil, svc) {
		svc.cancel(nil)
		return errors.New("sched: StartService on a Runtime already serving")
	}
	go func() {
		defer close(svc.runDone)
		defer func() {
			if r := recover(); r != nil {
				// A run-level panic (never a submission's — those resolve
				// their own futures) would otherwise kill the process from
				// a goroutine nobody joins. Capture it and fail the
				// remaining queued work instead.
				svc.runErr = fmt.Errorf("sched: service run panicked: %v", r)
				svc.adm.close()
			}
		}()
		svc.runErr = rt.runInternal(svc.ctx, rt.serviceRoot)
	}()
	return nil
}

// Submit hands one task to a serving runtime and returns its future.
// Callable from any goroutine, concurrently. The overload behaviour at
// a full admission queue follows ServiceConfig.Policy; see SubmitOpts
// for deadlines.
func (rt *Runtime) Submit(task func(api.Ctx), opts SubmitOpts) (*Submission, error) {
	return rt.submit(nil, task, opts)
}

// SubmitCtxOpts is Submit bound to a caller context: cancelling ctx
// cancels the submission (queued: resolved without running; mid-flight:
// cooperative cancellation like RunCtx). A nil ctx is Submit.
func (rt *Runtime) SubmitCtxOpts(ctx context.Context, task func(api.Ctx), opts SubmitOpts) (*Submission, error) {
	return rt.submit(ctx, task, opts)
}

func (rt *Runtime) submit(ctx context.Context, task func(api.Ctx), opts SubmitOpts) (*Submission, error) {
	svc := rt.svc.Load()
	if svc == nil {
		return nil, ErrNotServing
	}
	if task == nil {
		return nil, errors.New("sched: Submit with nil task")
	}
	if svc.closing.Load() {
		return nil, ErrServiceClosed
	}
	svc.adm.submitted.Add(1)

	sub := &Submission{
		task: task,
		done: make(chan struct{}),
		id:   uint16(svc.subSeq.Add(1)),
	}

	// The effective context. A drain force-cancel must reach every
	// submission, so a caller context is linked to the service context
	// (a context.AfterFunc, which starts a goroutine only if it fires);
	// one that can never be cancelled adds nothing and is not used. The
	// deadline is set on whichever of the two is the base, so one cancel,
	// wrapped with the link's stop, releases it all.
	eff, link := svc.ctx, ctx != nil && ctx.Done() != nil
	if link {
		eff = ctx
	}
	switch {
	case !opts.Deadline.IsZero():
		eff, sub.cancel = context.WithDeadline(eff, opts.Deadline)
	case link:
		eff, sub.cancel = context.WithCancel(eff)
	}
	if link {
		unlink, cancel := context.AfterFunc(svc.ctx, sub.cancel), sub.cancel
		sub.cancel = func() {
			unlink()
			cancel()
		}
	}
	if rtrace.IsEnabled() {
		// Begun before admission and ended by resolve: the queue wait is
		// inside the task.
		eff, sub.traceTask = rtrace.NewTask(eff, "submission")
	}
	sub.cs.Begin(eff, nil)

	if err := svc.admit(sub); err != nil {
		sub.resolve(err)
		return nil, err
	}
	return sub, nil
}

// admit runs the admission policy for one submission. Blocked under the
// Block policy, it observes the submission's effective context.
func (svc *service) admit(sub *Submission) error {
	rt := svc.rt
	q := &svc.adm
	if rt.chaosOn && svc.chaosRoll(replay.SiteSubmitLatency) {
		// Widens the window between submit's closing check and
		// tryAdmit, where Close's drain races this admission.
		time.Sleep(time.Duration(rt.cfg.Chaos.SubmitLatencyForUS) * time.Microsecond)
	}
	if rt.chaosOn && svc.chaosRoll(replay.SiteSubmitFail) {
		// Admission-time fault injection: behave exactly like a FailFast
		// overload refusal. Sound — a refusal is one of Submit's
		// documented outcomes whatever the policy.
		return svc.refuse(sub, replay.SubRejectChaos)
	}
	outcome, victim := q.tryAdmit(sub)
	if outcome == admitFull && q.policy == OverloadBlock {
		var err error
		if outcome, victim, err = q.waitAdmit(sub); err != nil {
			return err
		}
	}
	switch outcome {
	case admitClosed:
		// A producer that raised depth and then found the queue closed gave
		// its unit back; the drain check may have counted it.
		svc.wakeRoot()
		return ErrServiceClosed
	case admitFull:
		return svc.refuse(sub, replay.SubRejectOverload)
	}
	q.admitted.Add(1)
	if victim != nil {
		svc.shedVictim(victim)
	}
	if rt.recordOn {
		rt.rep.RecordExternal(replay.KSubmit, 0, sub.id)
	}
	// Published before this; a thief loads the depth after claiming its
	// ticket, so it either takes this submission or is woken.
	rt.wakeThief()
	return nil
}

// refuse tallies and records one refusal and returns its error.
func (svc *service) refuse(sub *Submission, reason uint8) error {
	svc.adm.rejected.Add(1)
	if svc.rt.recordOn {
		svc.rt.rep.RecordExternal(replay.KSubReject, reason, sub.id)
	}
	return &OverloadedError{RetryAfter: svc.retryHint()}
}

// shedVictim resolves an evicted submission's future with ErrShed.
func (svc *service) shedVictim(victim *Submission) {
	svc.adm.shed.Add(1)
	if svc.rt.recordOn {
		svc.rt.rep.RecordExternal(replay.KSubShed, 0, victim.id)
	}
	victim.resolve(ErrShed)
}

// chaosRoll rolls one of the admission-time injections (the external
// sites of the chaos table). The admission path has no worker token, so
// the draw comes from the service's dedicated mutex-guarded streams, and
// the roll is recorded on the external stream (replay never consumes it
// — service schedules are not replayable).
func (svc *service) chaosRoll(site uint8) bool {
	rate := svc.rt.cfg.Chaos.Rate(site)
	if rate <= 0 {
		return false
	}
	svc.chaosMu.Lock()
	fired := svc.chaos.Roll(site, rate)
	svc.chaosMu.Unlock()
	if svc.rt.recordOn {
		var arg uint16
		if fired {
			arg = 1
		}
		svc.rt.rep.RecordExternal(replay.KChaos, site, arg)
	}
	return fired
}

// retryHint estimates how long until a queue slot frees: the smoothed
// completion interval clamped to [100µs, 1s], 1ms before any completion.
func (svc *service) retryHint() time.Duration {
	h := time.Duration(svc.ewmaNs.Load())
	if h <= 0 {
		h = time.Millisecond
	}
	return min(max(h, 100*time.Microsecond), time.Second)
}

// takeNext dequeues the next submission, nil if none, counted in flight
// before the depth drops: a reader that loads the depth and then the
// gauge (ServiceStats, drained) never finds it in neither. A depth unit
// with nothing to get is a producer between its raise and its put (or
// its give-back); the gauge is lowered again and the token moves on.
func (svc *service) takeNext() *Submission {
	q := &svc.adm
	if q.depth.Load() == 0 {
		return nil
	}
	svc.inflight.Add(1)
	sub := q.take()
	if sub == nil {
		svc.leave()
		return nil
	}
	q.depth.Add(-1)
	q.kickBlocked()
	return sub
}

// takeSubmission runs the next admitted submission as a new top strand
// on the token's own vessel, dispatching to itself: the strand starts once
// the steal loop has returned to vessel.loop. Like a run's root it is
// charged one pool stack, so under a stack cap it is taken only with one
// in hand. One expired while queued is settled without running.
// False when the queue turned out empty or no stack could be had.
//
//nowa:coldpath one amortised append to the vessel's stack list per submission, next to the Gosched the caller just paid; a closed future and an outcome tally only for a submission settled without running
func (rt *Runtime) takeSubmission(p *Proc) bool {
	svc := rt.svc.Load()
	w := p.worker
	stack, ok := rt.pool.Get(w)
	if !ok {
		return false
	}
	for {
		sub := svc.takeNext()
		if sub == nil {
			rt.pool.Put(w, stack)
			return false
		}
		if sub.cs.Cancelled() {
			// Expired (or force-cancelled) while queued: resolve without
			// running it.
			svc.adm.expired.Add(1)
			err := sub.outcomeErr()
			svc.noteOutcome(err, false)
			svc.leave()
			sub.resolve(err)
			continue
		}
		if rt.recordOn {
			// Owner-only: this strand holds token w.
			rt.rep.Record(w, replay.KSubStart, 0, sub.id)
		}
		v := p.v
		// Drop the eager burst, as strand start drops demand: it was armed
		// for the thieves of this vessel's last strand, another submission.
		v.eagerBurst = 0
		v.stacks = append(v.stacks, stack)
		v.disp = dispatch{fn: runSubmission, worker: w, sub: sub}
		v.pk.deliver()
		return true
	}
}

// serviceRoot is the service run's root strand. Tokens take submissions
// (takeSubmission), so the root only waits for the drain, like any
// blocked strand: its token passed on, re-checking after it registered.
// Whatever makes the drain true wakes it (wakeRoot); its return ends the run.
func (rt *Runtime) serviceRoot(c api.Ctx) {
	svc := rt.svc.Load()
	p := c.(*Proc)
	for !svc.drained() {
		bw := p.PrepareWait()
		t, ok := svc.rootq.Enqueue(bw)
		if !ok || (svc.drained() && t.TryAbort()) {
			continue
		}
		p.CommitWait(bw)
	}
}

// drained reports the queue closed and empty and nothing in flight,
// loading closed, depth, then the gauge. A producer raises depth before it
// re-checks closed and a take raises the gauge before it lowers depth, so
// once true nothing is queued, taken or run again; a later reading is
// false only while a producer gives a unit back (admit then wakes the root).
func (svc *service) drained() bool {
	q := &svc.adm
	return q.closed.Load() && q.depth.Load() == 0 && svc.inflight.Load() == 0
}

// wakeRoot wakes the service root once drained. It runs after each write
// that can make drained true — the queue closing, the in-flight gauge
// reaching zero — and the root re-checks after registering.
func (svc *service) wakeRoot() {
	if svc.closing.Load() && svc.drained() {
		svc.rootq.Drain(func(h any) { h.(*Waiter).Wake() })
	}
}

// leave takes one settled submission out of the in-flight gauge.
func (svc *service) leave() {
	if svc.inflight.Add(-1) == 0 {
		svc.wakeRoot()
	}
}

// complete resolves a submission whose wrapper strand finished: panic
// beats context error beats success, mirroring RunCtx's reporting.
func (svc *service) complete(sub *Submission) {
	var err error
	if p := sub.takePanic(); p != nil {
		err = p
	} else {
		err = sub.outcomeErr()
	}
	// Tally, then leave the gauge: whoever sees InFlight at zero must
	// find this outcome already counted (see ServiceStats).
	svc.noteOutcome(err, true)
	svc.leave()
	sub.resolve(err)
}

// noteOutcome updates the completion tallies and, for work that actually
// ran, the completion-interval EWMA behind the retry-after hint.
func (svc *service) noteOutcome(err error, ran bool) {
	switch {
	case err == nil:
		svc.completed.Add(1)
	case errors.As(err, new(*api.StrandPanic)):
		svc.panicked.Add(1)
	default:
		svc.cancelled.Add(1)
	}
	if !ran {
		return
	}
	now := time.Now().UnixNano()
	last := svc.lastDoneNs.Swap(now)
	if last == 0 {
		return
	}
	gap := now - last
	old := svc.ewmaNs.Load()
	if old == 0 {
		svc.ewmaNs.Store(gap)
		return
	}
	// 1/8 smoothing; a stale racing store only perturbs a hint.
	svc.ewmaNs.Store(old - old/8 + gap/8)
}

// ServiceStats is a point-in-time snapshot of service-mode accounting.
type ServiceStats struct {
	// Admission pipeline tallies (see admitQueue).
	Submitted int64 // Submit attempts
	Admitted  int64 // enqueued
	Rejected  int64 // FailFast or chaos refusals
	Shed      int64 // evicted oldest-first while queued
	Expired   int64 // deadline/context fired while queued

	// Outcome tallies for dispatched work.
	Completed int64 // resolved nil
	Panicked  int64 // resolved with *api.StrandPanic
	Cancelled int64 // resolved with a context error

	Queued   int // currently in the admission queue
	InFlight int // dispatched, not yet resolved

	RetryHint time.Duration // current FailFast retry-after estimate

	// CompletionEWMA is the smoothed inter-completion interval — the
	// signal RetryHint clamps into its band. Exported raw so clients
	// and dashboards can read service velocity without triggering a
	// rejection to obtain a hint. Zero before the first completion.
	CompletionEWMA time.Duration
}

// ServiceStats reports the service accounting; false when the runtime
// is not (and was never) serving. Valid during and after Close.
//
// The gauges are read before the tallies, and a submission moves queue →
// in flight → tallied with no gap in between, so once no Submit call is
// in progress a snapshot showing Queued == 0 and InFlight == 0 is final:
// Admitted == Completed + Panicked + Cancelled + Shed holds in that very
// snapshot, with no settling delay.
func (rt *Runtime) ServiceStats() (ServiceStats, bool) {
	svc := rt.svc.Load()
	if svc == nil {
		return ServiceStats{}, false
	}
	q := &svc.adm
	queued, inflight := int(q.depth.Load()), int(svc.inflight.Load())
	return ServiceStats{
		Submitted:      q.submitted.Load(),
		Admitted:       q.admitted.Load(),
		Rejected:       q.rejected.Load(),
		Shed:           q.shed.Load(),
		Expired:        q.expired.Load(),
		Completed:      svc.completed.Load(),
		Panicked:       svc.panicked.Load(),
		Cancelled:      svc.cancelled.Load(),
		Queued:         queued,
		InFlight:       inflight,
		RetryHint:      svc.retryHint(),
		CompletionEWMA: time.Duration(svc.ewmaNs.Load()),
	}, true
}

// drainService is Close's service-mode path: stop admitting, drain the
// queue and the in-flight submissions up to DrainTimeout, then
// force-cancel the remainder through the run context and wait for the
// run to wind down (cancelled spawns degrade inline, queued submissions
// resolve with the cancellation cause, every token retires).
func (rt *Runtime) drainService(svc *service) {
	if !svc.closing.CompareAndSwap(false, true) {
		// Another Close is already draining; wait it out.
		<-svc.runDone
		return
	}
	svc.adm.close()
	svc.wakeRoot()
	if svc.cfg.DrainTimeout < 0 {
		<-svc.runDone
		return
	}
	t := time.NewTimer(svc.cfg.DrainTimeout)
	select {
	case <-svc.runDone:
		t.Stop()
	case <-t.C:
		svc.cancel(ErrDrainForced)
		<-svc.runDone
	}
}

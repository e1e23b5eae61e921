package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nowa/internal/api"
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
	// evicted oldest-first to admit newer work (the Shed policy, or any
	// policy under severe governor pressure).
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
// at its effective window.
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

// Governor pressure grades as seen by the admission window. They mirror
// governor.Severity (0 none, 1 mild, 2 severe) as plain ints so the
// admission fast path compares against constants.
const (
	gradeNone   = 0
	gradeMild   = 1
	gradeSevere = 2
)

// ServiceConfig parameterises StartService.
type ServiceConfig struct {
	// QueueDepth bounds the admission queue (per the whole queue, both
	// priority lanes together). Default 256.
	QueueDepth int
	// Policy selects the overload behaviour at a full queue (default
	// OverloadBlock). Severe governor pressure sheds regardless.
	Policy OverloadPolicy
	// DrainTimeout bounds Close's graceful drain: once it elapses the
	// remaining submissions are force-cancelled via the run context.
	// Zero selects the default (5s); negative waits indefinitely.
	DrainTimeout time.Duration
	// BaseContext, if non-nil, parents every submission's context and
	// the service run itself; cancelling it force-cancels the service.
	BaseContext context.Context
}

func (c *ServiceConfig) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.BaseContext == nil {
		c.BaseContext = context.Background()
	}
}

// SubmitOpts parameterises one submission.
type SubmitOpts struct {
	// Deadline, if nonzero, bounds the submission: expiry while queued
	// resolves the future with context.DeadlineExceeded without running
	// the task; expiry mid-flight cancels cooperatively (Ctx.Err fires,
	// Spawn degrades inline) exactly like RunCtx.
	Deadline time.Time
	// Priority > 0 routes the submission through the high-priority
	// admission lane: dequeued first, shed last.
	Priority int
}

// Submission state machine: queued → running → done, with shed taking
// queued → done directly. The CAS transitions make shed-vs-dispatch
// races single-winner.
const (
	subQueued uint32 = iota
	subRunning
	subDone
)

// Submission is the future of one submitted task. Wait (or Done + Err)
// observes the outcome: nil for success, *api.StrandPanic if the task
// panicked, the submission context's error if it was cancelled or
// expired, ErrShed if it was evicted while queued.
//
//nowa:nopad submissions are individually heap-allocated, one per Submit; no two are ever adjacent in an array
type Submission struct {
	task func(api.Ctx)
	body func(api.Ctx) // dispatcher spawn wrapper, built once at Submit

	// cs views the submission's effective context ctx: the service
	// context, plus the caller's context and/or deadline when given.
	// Begun with a nil wake — no watcher goroutine per submission.
	ctx    context.Context
	cs     api.CancelState
	csStop func()
	cancel context.CancelFunc // releases the deadline/link contexts; nil when none
	unlink func() bool        // stops the service-context AfterFunc link; nil when none

	done  chan struct{}
	err   error // written before done closes
	state atomic.Uint32
	prio  bool
	id    uint16 // truncated sequence number, for schedule-log events

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
// cancel. Must run before release detaches the context.
func (s *Submission) outcomeErr() error {
	if s.cs.Err() == nil {
		return nil
	}
	if cause := context.Cause(s.ctx); cause != nil {
		return cause
	}
	return s.cs.Err()
}

// resolve moves the submission to done from the given state, storing
// the outcome and waking waiters. False if another path won the race.
func (s *Submission) resolve(from uint32, err error) bool {
	if !s.state.CompareAndSwap(from, subDone) {
		return false
	}
	s.err = err
	close(s.done)
	return true
}

// release drops the submission's context resources: the deadline timer,
// the service-context link and the CancelState's context reference.
func (s *Submission) release() {
	if s.unlink != nil {
		s.unlink()
		s.unlink = nil
	}
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
	if s.csStop != nil {
		s.csStop()
		s.csStop = nil
	}
}

// run is the submission wrapper the dispatcher spawns. It brands the
// strand's Proc with the submission (children inherit it through
// dispatch, so every strand of this task routes panics and cancellation
// here) and contains the task's panic: unlike a batch Run, a service
// panic resolves only this submission's future.
func (s *Submission) run(p *Proc) {
	rt := p.rt
	p.sub = s
	defer func() {
		r := recover()
		p.sub = nil
		if r != nil {
			s.notePanic(r, debug.Stack())
		}
		if rt.recordOn {
			// Owner-only: this strand still holds p.worker's token.
			rt.rep.Record(p.worker, replay.KSubDone, 0, s.id)
		}
		if svc := rt.svc.Load(); svc != nil {
			svc.complete(s)
		}
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

	adm     admitQueue
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

	// chaosRng backs the admission-time SubmitFail injection. Admission
	// runs on external goroutines with no worker token, so unlike the
	// per-worker streams this one is mutex-guarded.
	chaosMu  sync.Mutex
	chaosRng rngState
}

// StartService switches the runtime into service mode: a long-lived
// internal run whose root strand dispatches admitted submissions as
// concurrent children of one scope. From then on external goroutines
// feed work through Submit/SubmitCtx; Run/RunCtx panic (the service
// occupies the runtime); Close gains graceful-drain semantics.
//
// The stall watchdog's progress probe cannot distinguish "service idle,
// no submissions" from a genuine stall, so do not arm StartWatchdog on
// a serving runtime unless traffic is continuous.
func (rt *Runtime) StartService(cfg ServiceConfig) error {
	cfg.fill()
	rt.allMu.Lock()
	closed := rt.closed
	rt.allMu.Unlock()
	if closed {
		return errors.New("sched: StartService on closed Runtime")
	}
	svc := &service{rt: rt, cfg: cfg, runDone: make(chan struct{})}
	svc.adm.init(cfg.QueueDepth, cfg.Policy)
	if rt.chaosOn {
		svc.chaosRng.s = uint64(rt.cfg.Chaos.Seed)*0x2545f4914f6cdd1d + 0x9e3779b97f4a7c15
	}
	svc.ctx, svc.cancel = context.WithCancelCause(cfg.BaseContext)
	if !rt.svc.CompareAndSwap(nil, svc) {
		svc.cancel(nil)
		return errors.New("sched: StartService on a Runtime already serving")
	}
	go func() {
		defer close(svc.runDone)
		defer func() {
			if r := recover(); r != nil {
				// A dispatcher-level panic (never a submission's — those
				// resolve their own futures) would otherwise kill the
				// process from a goroutine nobody joins. Capture it and
				// fail the remaining queued work instead.
				svc.runErr = fmt.Errorf("sched: service run panicked: %v", r)
				svc.adm.close()
			}
		}()
		svc.runErr = rt.runInternal(svc.ctx, rt.serviceRoot)
	}()
	return nil
}

// Serving reports whether the runtime is in service mode.
func (rt *Runtime) Serving() bool { return rt.svc.Load() != nil }

// Submit hands one task to a serving runtime and returns its future.
// Callable from any goroutine, concurrently. The overload behaviour at
// a full admission queue follows ServiceConfig.Policy; see SubmitOpts
// for deadlines and priority.
func (rt *Runtime) Submit(task func(api.Ctx), opts SubmitOpts) (*Submission, error) {
	return rt.submit(nil, task, opts)
}

// SubmitCtx is Submit bound to a caller context: cancelling ctx cancels
// the submission (queued: resolved without running; mid-flight:
// cooperative cancellation like RunCtx).
func (rt *Runtime) SubmitCtx(ctx context.Context, task func(api.Ctx)) (*Submission, error) {
	return rt.submit(ctx, task, SubmitOpts{})
}

// SubmitCtxOpts is the general form: caller context plus options.
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
		prio: opts.Priority > 0,
		id:   uint16(svc.subSeq.Add(1)),
	}
	sub.body = func(c api.Ctx) { sub.run(c.(*Proc)) }

	// Build the submission's effective context. Every chain is rooted
	// in the service context so a drain-deadline force-cancel reaches
	// all submissions; a caller context is linked in via AfterFunc (the
	// only per-submission goroutine cost, and only if that link fires).
	eff := svc.ctx
	if ctx != nil {
		cctx, cn := context.WithCancel(ctx)
		sub.unlink = context.AfterFunc(svc.ctx, cn)
		sub.cancel = cn
		eff = cctx
	}
	if !opts.Deadline.IsZero() {
		dctx, dn := context.WithDeadline(eff, opts.Deadline)
		prev := sub.cancel
		sub.cancel = func() {
			dn()
			if prev != nil {
				prev()
			}
		}
		eff = dctx
	}
	sub.ctx = eff
	sub.csStop = sub.cs.Begin(eff, nil)

	if err := svc.admit(sub, eff); err != nil {
		sub.release()
		return nil, err
	}
	return sub, nil
}

// admit runs the admission policy loop for one submission. waitCtx is
// the submission's effective context, observed while blocked under the
// Block policy.
func (svc *service) admit(sub *Submission, waitCtx context.Context) error {
	rt := svc.rt
	q := &svc.adm
	if rt.chaosOn && svc.chaosRoll(replay.SiteSubmitLatency) {
		// A slow client-to-service edge: the latency tail hedging
		// exists to cut.
		time.Sleep(time.Duration(rt.cfg.Chaos.SubmitLatencyForUS) * time.Microsecond)
	}
	if rt.chaosOn && svc.chaosRoll(replay.SiteSubmitFail) {
		// Admission-time fault injection: behave exactly like a FailFast
		// overload refusal. Sound — callers must tolerate ErrOverloaded
		// under any policy (severe pressure sheds, chaos refuses).
		q.rejected.Add(1)
		if rt.recordOn {
			rt.rep.RecordExternal(replay.KSubReject, replay.SubRejectChaos, sub.id)
		}
		return &OverloadedError{RetryAfter: svc.retryHint()}
	}
	for {
		q.mu.Lock()
		outcome, victim := q.tryAdmitLocked(sub, q.pressure.Load())
		q.mu.Unlock()
		switch outcome {
		case admitOK:
			q.admitted.Add(1)
			if victim != nil {
				svc.shedVictim(victim)
			}
			if rt.recordOn {
				rt.rep.RecordExternal(replay.KSubmit, 0, sub.id)
			}
			q.signal(q.itemCh)
			return nil
		case admitClosed:
			return ErrServiceClosed
		case admitFull:
			if q.policy == OverloadFailFast {
				q.rejected.Add(1)
				if rt.recordOn {
					rt.rep.RecordExternal(replay.KSubReject, replay.SubRejectOverload, sub.id)
				}
				return &OverloadedError{RetryAfter: svc.retryHint()}
			}
			// Block: wait for a slot, the submission's own context, or
			// drain start — then re-run the admission decision.
			select {
			case <-q.spaceCh:
			case <-q.closedCh:
				return ErrServiceClosed
			case <-waitCtx.Done():
				return waitCtx.Err()
			}
		}
	}
}

// shedVictim resolves an evicted submission's future with ErrShed.
func (svc *service) shedVictim(victim *Submission) {
	if victim.resolve(subQueued, ErrShed) {
		victim.release()
		svc.adm.shed.Add(1)
		if svc.rt.recordOn {
			svc.rt.rep.RecordExternal(replay.KSubShed, 0, victim.id)
		}
	}
}

// chaosRoll rolls one of the admission-time injections (the external
// sites of the chaos table). The admission path has no worker token, so
// the draw comes from the service's dedicated mutex-guarded stream, and
// the roll is recorded on the external stream (replay never consumes it
// — service schedules are not replayable).
func (svc *service) chaosRoll(site uint8) bool {
	rate := svc.rt.cfg.Chaos.Rate(site)
	if rate <= 0 {
		return false
	}
	svc.chaosMu.Lock()
	fired := int(svc.chaosRng.next()&1023) < rate
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

// queuedLen reports the current admission-queue depth — the stall
// supervisor's "runnable work" probe for service mode, where work can
// be queued for the dispatcher without any deque being non-empty.
func (svc *service) queuedLen() int {
	return svc.adm.queued()
}

// retryHint estimates how long until a queue slot frees: the smoothed
// completion interval, clamped to a sane band. Before any completion it
// reports the clamp floor scaled to the queue depth.
func (svc *service) retryHint() time.Duration {
	const (
		floor = 100 * time.Microsecond
		ceil  = time.Second
	)
	h := time.Duration(svc.ewmaNs.Load())
	if h <= 0 {
		h = time.Millisecond
	}
	if h < floor {
		h = floor
	}
	if h > ceil {
		h = ceil
	}
	return h
}

// nextSubmission blocks until a submission is available or the queue is
// closed and fully drained (nil). A popped submission is counted in
// flight before the queue lock is released, so it is never in neither
// gauge; the caller gives the count back once the submission's outcome
// is tallied.
func (svc *service) nextSubmission() *Submission {
	q := &svc.adm
	for {
		q.mu.Lock()
		sub := q.popNextLocked()
		if sub != nil {
			svc.inflight.Add(1)
		}
		closed := q.closed
		q.mu.Unlock()
		if sub != nil {
			q.signal(q.spaceCh)
			return sub
		}
		if closed {
			return nil
		}
		select {
		case <-q.itemCh:
		case <-q.closedCh:
		}
	}
}

// serviceRoot is the dispatcher: the root strand of the service run. It
// opens one scope and spawns every admitted submission as a child, so
// concurrent submissions are sibling subtrees of a single fork/join
// computation — the wait-free join protocol has no per-round fan-out
// bound, which is exactly what lets one scope host an unbounded stream
// of children. At drain (queue closed and empty) the final Sync joins
// every in-flight submission before the run completes.
//
// While blocked on an empty queue the dispatcher necessarily holds one
// worker token; the remaining tokens park as idle thieves, one waking
// per spawn, so an idle service burns no CPU polling.
func (rt *Runtime) serviceRoot(c api.Ctx) {
	svc := rt.svc.Load()
	p := c.(*Proc)
	// Submissions always take the eager handoff regardless of spawn mode:
	// the dispatch loop must run concurrently with every submission it
	// spawns (an inline run would serialise the queue behind one
	// submission's latency — the lazy-spawning deviation documented on
	// scope.Spawn, here as a matter of policy rather than correctness).
	s := c.Scope().(*scope)
	for {
		sub := svc.nextSubmission()
		if sub == nil {
			break
		}
		if !sub.state.CompareAndSwap(subQueued, subRunning) {
			// Shed while queued: its future is already resolved and its
			// outcome tallied by whoever shed it.
			svc.inflight.Add(-1)
			continue
		}
		if sub.cs.Cancelled() {
			// Expired (or force-cancelled) while queued: resolve without
			// paying for a spawn.
			svc.adm.expired.Add(1)
			err := sub.outcomeErr()
			sub.release()
			svc.noteOutcome(err, false)
			svc.inflight.Add(-1)
			sub.resolve(subRunning, err)
			continue
		}
		if rt.recordOn {
			// Owner-only: the dispatcher holds whatever token it last
			// resumed with.
			rt.rep.Record(p.worker, replay.KSubStart, 0, sub.id)
		}
		s.spawn(sub.body, true)
	}
	s.Sync()
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
	sub.release()
	// Tally, then leave the gauge: whoever sees InFlight at zero must
	// find this outcome already counted (see ServiceStats).
	svc.noteOutcome(err, true)
	svc.inflight.Add(-1)
	sub.resolve(subRunning, err)
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

// SetAdmissionPressure sets the admission pressure grade (0 none,
// 1 mild → half window, 2 severe → quarter window and shed-on-full).
// Normally driven by StartGovernor; exported for tests and operators.
func (rt *Runtime) SetAdmissionPressure(grade int) {
	svc := rt.svc.Load()
	if svc == nil {
		return
	}
	g := int32(grade)
	if g < gradeNone {
		g = gradeNone
	}
	if g > gradeSevere {
		g = gradeSevere
	}
	svc.adm.pressure.Store(g)
	if g > gradeNone {
		// A shrinking window admits nothing new until slots drain, but
		// blocked producers re-evaluate on the next completion signal
		// anyway; nothing to wake here.
		return
	}
	// Pressure cleared: let one blocked producer retry immediately.
	svc.adm.signal(svc.adm.spaceCh)
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

	PressureGrade int           // current admission pressure (0/1/2)
	RetryHint     time.Duration // current FailFast retry-after estimate

	// CompletionEWMA is the smoothed inter-completion interval — the
	// signal RetryHint clamps into its band. Exported raw so breakers
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
	queued, inflight := q.queued(), int(svc.inflight.Load())
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
		PressureGrade:  int(q.pressure.Load()),
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

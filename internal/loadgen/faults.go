package loadgen

import (
	"fmt"
	"runtime"
	"time"

	"nowa/internal/chaos"
	"nowa/internal/deque"
	"nowa/internal/sched"
)

// FaultSweepConfig parameterises the fault campaign: the same open-loop
// load measured across three scenarios — clean baseline, injected
// worker stalls with no defence, and stalls with stall recovery
// (seize/supplement) armed — so the report shows what recovery buys
// back.
type FaultSweepConfig struct {
	// Workers per runtime (default 4).
	Workers int
	// PointDur is the generation time per scenario (default 1s).
	PointDur time.Duration
	// TaskIters sizes the fork/join spin task (default 100000).
	TaskIters int
	// StallEvery injects about one chaos stall per N finish-window rolls
	// (default 6; see stallChaos). At 6 the unprotected stall scenario
	// loses about a third of its goodput while recovery keeps all of it
	// (4 workers, 1 s points, 2 vCPUs), so the report shows what recovery
	// buys; at one stall in 300 neither scenario loses any.
	StallEvery int
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

const (
	// faultQueueDepth is the admission queue depth of every scenario.
	faultQueueDepth = 32
	// stallFor is the injected stall length — far past stallThreshold,
	// so every injected stall is seizable when recovery is armed.
	stallFor       = 20 * time.Millisecond
	stallThreshold = time.Millisecond
)

func (c *FaultSweepConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.PointDur <= 0 {
		c.PointDur = time.Second
	}
	if c.TaskIters <= 0 {
		c.TaskIters = 100_000
	}
	if c.StallEvery <= 0 {
		c.StallEvery = 6
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// stallChaos arms the stall injection at about one stall per every
// finish-window rolls. Chaos rates are in 1/1024, so the rate is
// 1024/every, rounded down but never to zero (which would disarm the
// site).
func stallChaos(every int) *chaos.Chaos {
	return &chaos.Chaos{StallWorker: max(1, 1024/every), StallForUS: stallFor.Microseconds()}
}

// calibrateRate times the spin task serially and offers ~60% of the
// host's ideal throughput: enough utilisation that an injected stall
// backs work up behind it (which is what makes it seizable), with
// headroom so the clean baseline does not saturate. Capacity scales
// with the smaller of the worker count and the cores actually
// available — extra workers on an oversubscribed host add no
// throughput, only queueing.
func calibrateRate(workers, iters int) float64 {
	const reps = 16
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		sink.Store(spin(iters) ^ spin(iters) ^ spin(iters))
	}
	per := time.Since(t0) / reps
	if per <= 0 {
		per = time.Microsecond
	}
	effective := workers
	if p := runtime.GOMAXPROCS(0); p < effective {
		effective = p
	}
	rate := 0.6 * float64(effective) / per.Seconds()
	if rate < 500 {
		rate = 500
	}
	if rate > 20_000 {
		rate = 20_000
	}
	return rate
}

// FaultPoint is one scenario of the fault sweep.
type FaultPoint struct {
	Scenario string `json:"scenario"`
	Stalls   bool   `json:"stalls_injected"`
	Recovery bool   `json:"stall_recovery"`

	Result Result `json:"result"`

	// Ratios against the clean baseline scenario (1.0 = no damage).
	GoodputRatio float64 `json:"goodput_ratio"`
	P99Ratio     float64 `json:"p99_ratio"`

	// Server-side stall-recovery tallies.
	WorkersSupplemented int64 `json:"workers_supplemented"`
	SupplementsRetired  int64 `json:"supplements_retired"`

	// NotIdle is the idle invariant the runtime violated after Close
	// (sched.Runtime.CheckIdle: a leaked vessel, stack or scope, an
	// unretired supplement, a stranded waiter, an unbalanced spawn
	// tally); empty when all hold.
	NotIdle string `json:"not_idle,omitempty"`
}

// FaultReport is the campaign's result; cmd/nowa-serve writes it as JSON.
type FaultReport struct {
	Workers          int          `json:"workers"`
	RateRPS          float64      `json:"rate_rps"`
	StallEvery       int          `json:"stall_every"`
	StallForUS       int64        `json:"stall_for_us"`
	StallThresholdUS int64        `json:"stall_threshold_us"`
	Points           []FaultPoint `json:"points"`
}

// FaultSweep runs the three scenarios and returns the report. Every
// scenario uses the flagship configuration (CL deque, wait-free join);
// the sweep isolates the fault knobs, not the variant space.
func FaultSweep(cfg FaultSweepConfig) FaultReport {
	cfg.fill()
	// The offered load self-calibrates to ~60% of the host's measured
	// task throughput. The sweep needs real queue pressure — a stall
	// only reads as a stall while runnable work exists — but must stay
	// under the clean knee, because it measures fault damage, not
	// saturation.
	rate := calibrateRate(cfg.Workers, cfg.TaskIters)
	rep := FaultReport{
		Workers:          cfg.Workers,
		RateRPS:          rate,
		StallEvery:       cfg.StallEvery,
		StallForUS:       stallFor.Microseconds(),
		StallThresholdUS: stallThreshold.Microseconds(),
	}

	scenarios := []struct {
		name     string
		stalls   bool
		recovery bool
	}{
		{"baseline", false, false},
		{"stall", true, false},
		{"stall+supplement", true, true},
	}

	var base Result
	for i, sc := range scenarios {
		rcfg := sched.Config{
			Name:    "nowa-fault",
			Workers: cfg.Workers,
			Deque:   deque.CL,
			Join:    sched.WaitFree,
		}
		if sc.stalls {
			rcfg.Chaos = stallChaos(cfg.StallEvery)
		}
		if sc.recovery {
			rcfg.StallThreshold = stallThreshold
		}
		rt := sched.MustNew(rcfg)
		if err := rt.StartService(sched.ServiceConfig{
			QueueDepth: faultQueueDepth,
			Policy:     sched.OverloadFailFast,
		}); err != nil {
			panic(fmt.Sprintf("loadgen: FaultSweep StartService: %v", err))
		}
		res := Run(Config{
			Runtime:  rt,
			Rate:     rate,
			Duration: cfg.PointDur,
			Task:     SpinTask(cfg.TaskIters),
		})
		pt := FaultPoint{
			Scenario: sc.name,
			Stalls:   sc.stalls,
			Recovery: sc.recovery,
			Result:   res,
		}
		rt.Close()
		// All accounting reads after Close: mid-run snapshots would show
		// supplements still live and mis-report the retirement identity.
		final := rt.Stats()
		pt.WorkersSupplemented = final.WorkersSupplemented
		pt.SupplementsRetired = final.SupplementsRetired
		if err := rt.CheckIdle(); err != nil {
			pt.NotIdle = err.Error()
		}
		if i == 0 {
			base = res
			pt.GoodputRatio = 1
			pt.P99Ratio = 1
		} else {
			if base.GoodputRPS > 0 {
				pt.GoodputRatio = res.GoodputRPS / base.GoodputRPS
			}
			if base.P99us > 0 {
				pt.P99Ratio = res.P99us / base.P99us
			}
		}
		cfg.Logf("  fault %-24s goodput=%8.0f/s (%.2fx) p99=%.0fµs (%.2fx) supplemented=%d",
			sc.name, res.GoodputRPS, pt.GoodputRatio, res.P99us, pt.P99Ratio, pt.WorkersSupplemented)
		rep.Points = append(rep.Points, pt)
	}
	return rep
}

// CheckFaultReport enforces the fault-campaign bars. leaks (always
// fatal): every scenario's runtime must be idle after Close — nothing
// leaked, every supplement retired — and the recovery scenarios must
// actually supplement (a sweep that never exercised the machinery proves
// nothing).
// degraded (host-noise sensitive; callers decide severity): the
// supplemented scenario must keep goodput within 80% of the clean
// baseline.
func CheckFaultReport(rep FaultReport) (leaks, degraded []string) {
	var supplemented *FaultPoint
	for i := range rep.Points {
		pt := &rep.Points[i]
		if pt.NotIdle != "" {
			leaks = append(leaks, fmt.Sprintf("fault/%s: %s", pt.Scenario, pt.NotIdle))
		}
		if pt.Recovery && pt.WorkersSupplemented == 0 {
			leaks = append(leaks, fmt.Sprintf("fault/%s: recovery armed but no worker was ever supplemented",
				pt.Scenario))
		}
		if pt.Scenario == "stall+supplement" {
			supplemented = pt
		}
	}
	if supplemented != nil && supplemented.GoodputRatio < 0.8 {
		degraded = append(degraded, fmt.Sprintf(
			"fault/stall+supplement: goodput ratio %.2f < 0.80 of clean baseline", supplemented.GoodputRatio))
	}
	return leaks, degraded
}

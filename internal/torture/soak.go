package torture

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nowa/internal/apps"
	"nowa/internal/blockapps"
	"nowa/internal/replay"
	"nowa/internal/sched"
)

// Config is one soak: what to draw from, for how long, where output goes.
type Config struct {
	Duration   time.Duration
	Seed       int64
	Out        string // directory for repro bundles
	Kernels    []string
	Variants   []string
	Chaos      []string // names of Classes rows
	MaxWorkers int
	RingCap    int  // per-worker recorder capacity (events)
	Service    bool // soak service mode instead of batch runs
	Verbose    bool
	Stdout     io.Writer
	Stderr     io.Writer // bad arguments and bundle-writing errors
}

// Soak draws and runs trials until the duration is spent and returns
// the exit status: 0 clean, 1 some trial failed, 2 a name in one of the
// three lists that its table does not know.
func Soak(c Config) int {
	from, err := classes(c.Chaos)
	for _, k := range c.Kernels {
		if _, kerr := blockapps.ByName(k, apps.Test); err == nil {
			err = kerr
		}
	}
	for _, v := range c.Variants {
		if _, verr := sched.VariantConfig(v, 1); err == nil {
			err = verr
		}
	}
	if err != nil {
		fmt.Fprintln(c.Stderr, "nowa-torture:", err)
		return 2
	}
	rng := rand.New(rand.NewSource(c.Seed))
	deadline := time.Now().Add(c.Duration)
	trials, failures := 0, 0
	var bundles []string
	for time.Now().Before(deadline) {
		m := drawTrial(c, from, rng, trials)
		trials++
		var sc *serviceSpec
		kind, ringCap := "", c.RingCap
		if c.Service {
			sc, kind, ringCap = drawServiceSpec(rng), "service ", 0
			m.TimeoutMS = 0 // deadlines are per-submission here
			if sc.stallEvery > 0 && m.StallThresholdUS == 0 {
				// Planted mid-strand stalls are the application-level
				// fault; arm recovery so they drive seize/supplement
				// cycles rather than just slow the trial down.
				m.StallThresholdUS = 500
			}
		}
		f, _ := run(m, sc, ringCap)
		if c.Verbose {
			status := "ok"
			if f != "" {
				status = "FAIL " + f
			}
			fmt.Fprintf(c.Stdout, "trial %4d: %s: %s\n", trials, label(m, sc), status)
		}
		if f == "" {
			continue
		}
		failures++
		fmt.Fprintf(c.Stdout, "FAILURE in %strial %d (%s): %s\n", kind, trials, label(m, sc), f)
		if sc != nil {
			fmt.Fprintf(c.Stdout, "  (service trials are wall-clock driven and not bundle-replayable; rerun with -service -seed %d)\n", c.Seed)
			continue
		}
		pinned, _ := c.pin(m, failureClass(f), "")
		bundles = append(bundles, pinned...)
	}
	fmt.Fprintf(c.Stdout, "nowa-torture: %d trials, %d failures in %v\n", trials, failures, c.Duration)
	if failures > 0 {
		fmt.Fprintln(c.Stdout, "repro bundles:")
		for _, b := range bundles {
			fmt.Fprintln(c.Stdout, "  ", b)
		}
		return 1
	}
	return 0
}

// failureClass is the stable prefix of a failure string: what decides
// whether a rerun failed "the same" way (leak counts and such vary).
func failureClass(f string) string {
	class, _, _ := strings.Cut(f, ":")
	return class
}

// rerun runs the trial again from its meta, recorder attached, until it
// fails with the given class or the attempts are spent: one attempt at
// one worker, where the seeds decide everything, three otherwise, where
// the OS interleaving still varies and one clean rerun proves nothing.
func rerun(m replay.Meta, class string, ringCap int) (f string, rec *replay.Recorder) {
	attempts := 3
	if m.Workers == 1 {
		attempts = 1
	}
	for ; attempts > 0; attempts-- {
		if f, rec = run(m, nil, ringCap); failureClass(f) == class {
			break
		}
	}
	return f, rec
}

// reductions are the shrinker's steps outside the chaos block, in the
// order tried; one that leaves the candidate as it was is skipped.
// Disarming recovery removes the supplement machinery from the repro: a
// failure that survives was never about it.
var reductions = []struct {
	what   string
	reduce func(*replay.Meta)
}{
	{"workers halved", func(m *replay.Meta) { m.Workers = max(1, m.Workers/2) }},
	{"deadline dropped", func(m *replay.Meta) { m.TimeoutMS = 0 }},
	{"stall recovery disarmed", func(m *replay.Meta) { m.StallThresholdUS = 0 }},
}

// shrinkBudget bounds the candidate reruns of one shrink.
const shrinkBudget = 64

// shrink reduces a failing trial toward a minimal one for which fails
// still holds: the reductions above, then every armed site of the chaos
// table dropped outright or else halved, each kept only if the failure
// survives it, in a bounded fixed-point pass. log, if non-nil, is told
// what was kept.
func shrink(m replay.Meta, fails func(replay.Meta) bool, log io.Writer) replay.Meta {
	budget := shrinkBudget
	try := func(cand replay.Meta, what string) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if !fails(cand) {
			return false
		}
		if log != nil {
			fmt.Fprintf(log, "  shrink: kept %s\n", what)
		}
		m = cand
		return true
	}
	tryRate := func(s uint8, rate int, what string) bool {
		cand, cc := m, *m.Chaos
		cc.SetRate(s, rate) // a dropped rate takes its duration knob along
		cand.Chaos = &cc
		return try(cand, "chaos "+replay.SiteName(s)+" "+what)
	}
	for changed := true; changed && budget > 0; {
		changed = false
		for _, r := range reductions {
			cand := m
			if r.reduce(&cand); cand != m && try(cand, r.what) {
				changed = true
			}
		}
		if m.Chaos == nil {
			continue
		}
		for s := uint8(1); s < replay.NumSites; s++ {
			if r := m.Chaos.Rate(s); r > 0 && (tryRate(s, 0, "dropped") || r > 1 && tryRate(s, r/2, "halved")) {
				changed = true
			}
		}
		if m.Chaos.Zero() {
			m.Chaos = nil
		}
	}
	return m
}

// capture re-runs a failing trial, writes its repro bundle — the meta
// plus the failing run's last events — and confirms that rerunning the
// meta reproduces the same failure class. It returns the bundle's path,
// "" if the failure evaporated.
func (c Config) capture(m replay.Meta, class, suffix string) (string, error) {
	f, rec := rerun(m, class, c.RingCap)
	if failureClass(f) != class {
		return "", nil
	}
	m.Failure = f
	if err := os.MkdirAll(c.Out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(c.Out, fmt.Sprintf("%s-%s-w%d-s%d%s.bundle", m.Kernel, m.Variant, m.Workers, m.Seed, suffix))
	if err := replay.SaveBundle(path, replay.NewBundle(m, rec)); err != nil {
		return "", err
	}
	if rf, _ := rerun(m, class, 0); failureClass(rf) == class {
		fmt.Fprintf(c.Stdout, "  bundle %s reruns to the same failure (%s)\n", path, failureClass(rf))
	} else {
		fmt.Fprintf(c.Stdout, "  warning: bundle %s reran to %q, captured %q\n", path, rf, f)
	}
	return path, nil
}

// pin is what happens to a failing trial: capture it, shrink it, capture
// the minimal trial under the suffix plus "-min". It returns the bundles
// written — none when the failure evaporated under recapture, one when
// only the shrunk trial's did — and the minimal trial.
func (c Config) pin(m replay.Meta, class, suffix string) (bundles []string, minimal replay.Meta) {
	path, err := c.capture(m, class, suffix)
	if err != nil {
		fmt.Fprintln(c.Stderr, "nowa-torture: writing bundle:", err)
	} else if path == "" {
		fmt.Fprintln(c.Stdout, "  failure did not reproduce under recapture; not shrinking")
		return nil, m
	} else {
		bundles = append(bundles, path)
	}
	var log io.Writer
	if c.Verbose {
		log = c.Stdout
	}
	minimal = shrink(m, func(cand replay.Meta) bool {
		f, _ := rerun(cand, class, 0)
		return failureClass(f) == class
	}, log)
	fmt.Fprintf(c.Stdout, "  shrunk to: %s\n", label(minimal, nil))
	if path, err = c.capture(minimal, class, suffix+"-min"); err != nil {
		fmt.Fprintln(c.Stderr, "nowa-torture: writing minimal bundle:", err)
	} else if path != "" {
		bundles = append(bundles, path)
	}
	return bundles, minimal
}

// Replay loads a repro bundle and reruns its meta under rerun's attempt
// rule. Exit 0 iff the recorded failure class reproduces.
func Replay(path string, c Config) int {
	b, err := replay.LoadBundle(path)
	if err != nil {
		fmt.Fprintln(c.Stderr, "nowa-torture:", err)
		return 2
	}
	m := b.Meta
	fmt.Fprintf(c.Stdout, "rerunning %s: %s\n", path, label(m, nil))
	if m.Failure != "" {
		fmt.Fprintf(c.Stdout, "  captured failure: %s\n", m.Failure)
	}
	if c.Verbose && len(b.Events) > 0 {
		fmt.Fprintf(c.Stdout, "  worker 0 schedule tail: %s\n", b.Events[0])
	}
	f, _ := rerun(m, failureClass(m.Failure), 0)
	switch {
	case f == "" && m.Failure == "":
		fmt.Fprintln(c.Stdout, "rerun passed (bundle recorded no failure)")
		return 0
	case failureClass(f) == failureClass(m.Failure):
		fmt.Fprintf(c.Stdout, "reproduced: %s\n", f)
		return 0
	}
	fmt.Fprintf(c.Stdout, "NOT reproduced: rerun gave %q, bundle recorded %q\n", f, m.Failure)
	return 1
}

// SelfTest validates the whole pipeline against the planted
// Chaos.LeakVessel bug: the trial must fail, its bundle's meta must rerun
// to the same failure, and the shrinker must arrive at a trial that
// still fails and still carries the injection that causes the failure.
func SelfTest(c Config) int {
	// StealInterest 1024 promotes every lazy spawn: without it a
	// single-worker trial runs everything inline under the default spawn
	// policy and never churns a vessel, so the planted leak cannot fire.
	m := replay.Meta{
		Tool: "nowa-torture", Kernel: "fib", Scale: "test", Variant: "nowa",
		Workers: 1, Seed: 7, Class: "planted",
		Chaos: &replay.Chaos{Seed: 11, LeakVessel: 24, StealInterest: 1024, DelaySpins: 1},
	}
	const class = "vessel-leak"
	fmt.Fprintf(c.Stdout, "selftest trial: %s (planted leak-vessel bug armed)\n", label(m, nil))
	f, _ := run(m, nil, c.RingCap)
	if failureClass(f) != class {
		fmt.Fprintf(c.Stdout, "selftest FAILED: planted bug gave %q, want a vessel-leak\n", f)
		return 1
	}
	fmt.Fprintf(c.Stdout, "  trial fails as planted: %s\n", f)
	c.Verbose = true
	bundles, min := c.pin(m, class, "-selftest")
	switch {
	case len(bundles) < 2:
		fmt.Fprintf(c.Stdout, "selftest FAILED: the trial or its shrunk form did not fail again for a bundle (got %q)\n", bundles)
	case Replay(bundles[0], c) != 0:
		fmt.Fprintln(c.Stdout, "selftest FAILED: bundle did not rerun to the captured failure")
	case min.Chaos == nil || min.Chaos.LeakVessel == 0:
		fmt.Fprintln(c.Stdout, "selftest FAILED: shrinker dropped the injection that causes the failure")
	default:
		fmt.Fprintf(c.Stdout, "selftest passed: capture, rerun and shrink all work (leak-vessel rate %d left)\n", min.Chaos.LeakVessel)
		return 0
	}
	return 1
}

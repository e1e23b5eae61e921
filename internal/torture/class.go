// Package torture is the engine behind cmd/nowa-torture, the robustness
// soak driver: it cycles kernels × scheduler variants × worker counts ×
// chaos classes × cancellation deadlines and checks the scheduler's
// invariants after every trial. When one breaks, the trial is re-run
// for a repro bundle (config and seeds, plus the failing run's last
// events for the reader), the bundle's meta is confirmed to rerun to the
// same failure, and the trial is shrunk to a minimal one that still
// fails.
//
// The matrix is data. An injection site is a row of internal/replay's
// chaos table, a chaos class a row of Classes here; drawing a trial,
// validating and documenting -chaos, labelling and shrinking all loop
// over those two tables, so a new injection needs no edit in this
// package and a new class needs one row.
package torture

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"nowa/internal/blockapps"
	"nowa/internal/replay"
)

// Class is one chaos class of the trial matrix: the injections it arms
// and the trial settings it forces.
type Class struct {
	Name string
	// Chaos holds the rates and durations; nil injects nothing. The seed
	// is drawn per trial. Admission-path rates (replay.SiteExternal)
	// reach service trials only: in a batch trial they could never fire
	// and would only give the shrinker something bogus to chew on.
	Chaos *replay.Chaos
	// Blocking draws the kernel from the blocking suite, not -kernels,
	// and forces eager spawns: those kernels deadlock under lazy spawns —
	// a parked stage's unblocker is a later-spawned sibling. It also
	// leans on short deadlines, so most trials cancel mid-churn with
	// waiters in flight.
	Blocking bool
	// RecoveryUS, if positive, arms stall recovery with this threshold.
	RecoveryUS int64
}

// Classes is the trial-matrix chaos vocabulary, selectable with -chaos
// (DESIGN.md §12 says what each row is after). LeakVessel stays zero in
// every row by design: it is the planted bug, exercised only by the
// selftest, and arming it in the soak would make every trial fail.
var Classes = []Class{
	{Name: "off"},
	{Name: "light", Chaos: &replay.Chaos{
		StealFail: 16, PopBottomDelay: 16, SyncDelay: 16, StealInterest: 16, DelaySpins: 2,
		SubmitFail: 16}},
	{Name: "heavy", Chaos: &replay.Chaos{
		StealDelay: 64, StealFail: 128, PopBottomDelay: 128, SyncDelay: 128,
		StealInterest: 128, DelaySpins: 4,
		SubmitFail: 128}},
	{Name: "promote", Chaos: &replay.Chaos{ // every lazy spawn promotes mid-inline-run
		StealInterest: 1024, StealFail: 16, PopBottomDelay: 16, DelaySpins: 2,
		SubmitFail: 16}},
	{Name: "stall", RecoveryUS: 500, Chaos: &replay.Chaos{ // armed well under the 2ms stall: each one is seizable
		StallWorker: 48, StallForUS: 2000, StealFail: 16, DelaySpins: 2,
		SubmitFail: 16, SubmitLatency: 16, SubmitLatencyForUS: 500}},
	{Name: "abort", Blocking: true, Chaos: &replay.Chaos{ // WakeAborted races Wake in the cqs cell CAS
		AbortWait: 96, WakeupDelay: 64, StealFail: 16, DelaySpins: 2,
		SubmitFail: 16}},
}

// ClassNames lists the classes in table order.
func ClassNames() []string {
	names := make([]string, len(Classes))
	for i, cl := range Classes {
		names[i] = cl.Name
	}
	return names
}

// classes resolves a -chaos list against the table.
func classes(names []string) ([]Class, error) {
	var out []Class
	for _, name := range names {
		i := slices.IndexFunc(Classes, func(cl Class) bool { return cl.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown chaos class %q (want %s)", name, strings.Join(ClassNames(), ", "))
		}
		out = append(out, Classes[i])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -chaos class list")
	}
	return out, nil
}

// drawTrial picks one point in the trial matrix. Everything the drawn
// class forces is written into the meta, so the bundle of a failing
// trial rebuilds the run without consulting the class table.
func drawTrial(c Config, from []Class, rng *rand.Rand, n int) replay.Meta {
	w := max(1, min([]int{1, 2, 4, c.MaxWorkers}[rng.Intn(4)], c.MaxWorkers))
	m := replay.Meta{
		Tool:    "nowa-torture",
		Kernel:  c.Kernels[rng.Intn(len(c.Kernels))],
		Scale:   "test",
		Variant: c.Variants[rng.Intn(len(c.Variants))],
		Workers: w,
		Seed:    int64(n)*37 + rng.Int63n(1024) + 1,
	}
	cl := from[rng.Intn(len(from))]
	m.Class = cl.Name
	if cl.Chaos != nil {
		cc := *cl.Chaos
		cc.Seed = rng.Int63n(1<<31) + 1
		for s := uint8(1); s < replay.NumSites; s++ {
			if replay.SiteExternal(s) && !c.Service {
				cc.SetRate(s, 0)
			}
		}
		m.Chaos = &cc
	}
	m.StallThresholdUS = cl.RecoveryUS
	m.TimeoutMS = []int64{0, 1, 5, 0}[rng.Intn(4)]
	if cl.Blocking {
		names := blockapps.BlockingNames()
		m.Kernel = names[rng.Intn(len(names))]
		m.SpawnEager = true
		if m.TimeoutMS == 0 {
			m.TimeoutMS = rng.Int63n(2)
		}
	}
	return m
}

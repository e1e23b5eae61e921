package loadgen

import (
	"strings"
	"testing"
	"time"

	"nowa/internal/chaos"
)

// TestFaultStallRate: the campaign's default StallEvery of 6 stalls
// about one finish-window roll in 6 (170/1024 after rounding), not the
// 6/1024 a rate passed through unconverted would give.
func TestFaultStallRate(t *testing.T) {
	var cfg FaultSweepConfig
	cfg.fill()
	c := stallChaos(cfg.StallEvery).WithDefaults(1)
	var st chaos.Streams
	st.Seed(c.Seed, 0)
	const rolls = 100_000
	fired := 0
	for i := 0; i < rolls; i++ {
		if st.Fire(c, chaos.SiteStallWorker) {
			fired++
		}
	}
	if share := float64(fired) / rolls; share < 0.14 || share > 0.19 {
		t.Errorf("StallEvery %d fired %d of %d rolls (%.2f%%), want 14-19%%",
			cfg.StallEvery, fired, rolls, 100*share)
	}
}

// TestFaultSweepSmoke runs a miniature fault campaign and checks the
// structural guarantees: three scenarios, clean leak accounting, armed
// recovery actually seizing, and sane ratio bookkeeping. Throughput
// ratios themselves are host-dependent and only checked for presence.
func TestFaultSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep generates hundreds of milliseconds of load per scenario")
	}
	rep := FaultSweep(FaultSweepConfig{
		Workers:    4,
		PointDur:   500 * time.Millisecond,
		TaskIters:  50_000,
		StallEvery: 30,
		Logf:       t.Logf,
	})
	if len(rep.Points) != 3 {
		t.Fatalf("got %d fault points, want 3", len(rep.Points))
	}
	leaks, _ := CheckFaultReport(rep)
	for _, msg := range leaks {
		t.Errorf("leak check: %s", msg)
	}
	if rep.Points[0].GoodputRatio != 1 {
		t.Fatalf("baseline goodput ratio = %v, want 1", rep.Points[0].GoodputRatio)
	}
	for _, pt := range rep.Points[1:] {
		if pt.GoodputRatio <= 0 {
			t.Fatalf("fault/%s: goodput ratio %v not computed", pt.Scenario, pt.GoodputRatio)
		}
	}
	for _, pt := range rep.Points {
		if !pt.Recovery && pt.WorkersSupplemented != 0 {
			t.Fatalf("fault/%s: stall stats nonzero without recovery: %+v", pt.Scenario, pt)
		}
	}
}

// TestCheckFaultReportBars pins every bar of CheckFaultReport on
// fabricated reports, each one step to either side of its threshold.
func TestCheckFaultReportBars(t *testing.T) {
	// clean passes every bar; each case breaks exactly one thing.
	clean := func() FaultReport {
		return FaultReport{Points: []FaultPoint{
			{Scenario: "baseline", GoodputRatio: 1, Result: Result{P99us: 1000}},
			{Scenario: "stall", Stalls: true, GoodputRatio: 0.5, Result: Result{P99us: 30000}},
			{Scenario: "stall+supplement", Stalls: true, Recovery: true, GoodputRatio: 0.95,
				WorkersSupplemented: 9, SupplementsRetired: 9, Result: Result{P99us: 4000}},
		}}
	}
	const supplemented = 2
	for _, tc := range []struct {
		name                string
		edit                func(*FaultReport)
		wantLeak, wantDegrd string // substring of the one expected message; "" = none
	}{
		{name: "clean", edit: func(*FaultReport) {}},
		{name: "goodput 0.80 holds", edit: func(r *FaultReport) { r.Points[supplemented].GoodputRatio = 0.80 }},
		{name: "goodput 0.79 fails", edit: func(r *FaultReport) { r.Points[supplemented].GoodputRatio = 0.79 },
			wantDegrd: "goodput ratio 0.79 < 0.80"},
		{name: "unsupplemented goodput is not barred", edit: func(r *FaultReport) { r.Points[1].GoodputRatio = 0.1 }},
		{name: "unretired supplement", edit: func(r *FaultReport) {
			r.Points[supplemented].NotIdle = "supplement-leak: 9 supplements dispatched, 8 retired"
		}, wantLeak: "fault/stall+supplement: supplement-leak: 9 supplements dispatched, 8 retired"},
		{name: "recovery armed, never supplemented", edit: func(r *FaultReport) { r.Points[supplemented].WorkersSupplemented = 0 },
			wantLeak: "fault/stall+supplement: recovery armed but no worker was ever supplemented"},
		{name: "unarmed run need not supplement", edit: func(r *FaultReport) { r.Points[1].WorkersSupplemented = 0 }},
		{name: "leaked vessel", edit: func(r *FaultReport) { r.Points[0].NotIdle = "vessel-leak: 1 vessels never returned to a free list" },
			wantLeak: "fault/baseline: vessel-leak: 1 vessels"},
		{name: "leaked stack", edit: func(r *FaultReport) { r.Points[1].NotIdle = "stack-leak: 2 stacks unaccounted" },
			wantLeak: "fault/stall: stack-leak: 2 stacks"},
		{name: "leaked scope", edit: func(r *FaultReport) { r.Points[supplemented].NotIdle = "scope-leak: 3 scopes abandoned" },
			wantLeak: "fault/stall+supplement: scope-leak: 3 scopes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := clean()
			tc.edit(&rep)
			leaks, degraded := CheckFaultReport(rep)
			checkMessages(t, "leaks", leaks, tc.wantLeak)
			checkMessages(t, "degraded", degraded, tc.wantDegrd)
		})
	}
}

// checkMessages requires got to be empty when want is "", and otherwise
// to be exactly one message containing want.
func checkMessages(t *testing.T, kind string, got []string, want string) {
	t.Helper()
	switch {
	case want == "" && len(got) != 0:
		t.Errorf("%s = %q, want none", kind, got)
	case want != "" && (len(got) != 1 || !strings.Contains(got[0], want)):
		t.Errorf("%s = %q, want one message containing %q", kind, got, want)
	}
}

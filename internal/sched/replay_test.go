package sched

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"testing"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/deque"
	"nowa/internal/replay"
	"nowa/internal/trace"
)

// replayVariants are the four vessel-model configurations, at the given
// worker count, with recording attached.
func replayVariants(workers int) []Config { return variantConfigs(workers) }

// captureRun executes one seeded chaos workload on a fresh runtime built
// from cfg with a fresh recorder, returning the captured log.
func captureRun(t *testing.T, cfg Config) *replay.Log {
	t.Helper()
	rec := replay.NewRecorder(cfg.Workers, 1<<16)
	cfg.Record = rec
	rt := MustNew(cfg)
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	log := rec.Snapshot()
	if log.Truncated() {
		t.Fatal("capture ring overflowed; grow the test recorder")
	}
	return log
}

// rolls lists the outcomes of the chaos rolls at site in one stream.
func rolls(evs []replay.Event, site uint8) []uint16 {
	var out []uint16
	for _, e := range evs {
		if e.Kind == replay.KChaos && e.Site == site {
			out = append(out, e.Arg)
		}
	}
	return out
}

// TestReplayDeterministicCapture is the determinism gate: at Workers=1 a
// run's schedule is fully determined by the configuration and seeds —
// the single token executes the serial depth-first order and every chaos
// draw comes from a seeded stream — so recording the same workload twice
// must produce identical event logs, for every scheduler variant. This
// is the property that makes rerunning a single-worker bundle's meta
// exact.
func TestReplayDeterministicCapture(t *testing.T) {
	for _, cfg := range replayVariants(1) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.Seed = 7
			cfg.Chaos = &Chaos{
				Seed:           11,
				PopBottomDelay: 64,
				SyncDelay:      64,
				StealInterest:  32,
				DelaySpins:     2,
			}
			if a, b := captureRun(t, cfg), captureRun(t, cfg); !reflect.DeepEqual(a, b) {
				t.Fatalf("two identically seeded single-worker captures differ (%d vs %d events)", a.Total(), b.Total())
			}
		})
	}
}

// TestReplaySeedSensitivity guards against the capture being trivially
// constant: a different chaos seed must change the recorded schedule.
func TestReplaySeedSensitivity(t *testing.T) {
	cfg := replayVariants(1)[0]
	cfg.Seed = 7
	mk := func(chaosSeed int64) *replay.Log {
		c := cfg
		c.Chaos = &Chaos{Seed: chaosSeed, StealInterest: 128, DelaySpins: 1}
		return captureRun(t, c)
	}
	if reflect.DeepEqual(mk(11), mk(12)) {
		t.Fatal("captures with different chaos seeds are identical; the log is not recording the rolls")
	}
}

// leakConfig is a single-worker configuration with the planted
// Chaos.LeakVessel bug armed: some finishing vessels are dropped instead
// of pooled, so the idle reconciliation reports VesselsLeaked > 0.
func leakConfig(chaosSeed int64) Config {
	return Config{
		Name: "nowa", Workers: 1, Deque: deque.CL, Join: WaitFree,
		Seed: 7,
		// Eager spawning keeps vessels churning: the leak is injected
		// when a vessel finishes, and a single-worker lazy run dispatches
		// almost none.
		Spawn: SpawnEager,
		Chaos: &Chaos{
			Seed:       chaosSeed,
			LeakVessel: 24,
			DelaySpins: 1,
		},
	}
}

// TestReplayReproducesCapturedFailure: a chaos-induced invariant
// violation (the planted vessel leak) is reproduced by its configuration
// alone — the same seeds leak the same vessels along the same schedule —
// while a different chaos seed leaks differently, so the seed, not luck,
// decides the failure.
func TestReplayReproducesCapturedFailure(t *testing.T) {
	leak := func(chaosSeed int64) (int64, *replay.Log) {
		cfg := leakConfig(chaosSeed)
		rec := replay.NewRecorder(cfg.Workers, 1<<15)
		cfg.Record = rec
		rt := MustNew(cfg)
		defer rt.Close()
		app := apps.NewFib(apps.Test)
		app.Prepare()
		rt.Run(app.Run)
		if err := app.Verify(); err != nil {
			t.Fatalf("verify: %v", err)
		}
		return rt.Stats().VesselsLeaked, rec.Snapshot()
	}
	leaked, log := leak(11)
	if leaked <= 0 {
		t.Fatalf("planted LeakVessel bug produced no leak (VesselsLeaked=%d); cannot exercise the pipeline", leaked)
	}
	if log.Truncated() {
		t.Fatal("capture ring overflowed; grow the test recorder")
	}
	if again, relog := leak(11); again != leaked || !reflect.DeepEqual(relog, log) {
		t.Fatalf("rerun of the same seeds leaked %d vessels (capture %d); logs equal: %v",
			again, leaked, reflect.DeepEqual(relog, log))
	}
	if other, _ := leak(9999); other == leaked {
		t.Skipf("a different chaos seed coincidentally leaked the same count (%d); inconclusive control, the rerun assertions above already passed", other)
	}
}

// TestReplayRecordedChaosDecisions: a site's recorded rolls depend on
// the seed alone, not on which other sites are armed. Two single-worker
// captures share a seed; the second also arms two delay sites, whose
// rolls land between the first site's — and the first site's outcomes
// must come out the same, roll for roll.
func TestReplayRecordedChaosDecisions(t *testing.T) {
	cfg := replayVariants(1)[0]
	cfg.Seed = 3
	cfg.Chaos = &Chaos{Seed: 5, StealInterest: 64, DelaySpins: 1}
	alone := captureRun(t, cfg).PerWorker[0]
	cfg.Chaos = &Chaos{Seed: 5, StealInterest: 64, PopBottomDelay: 64, SyncDelay: 64, DelaySpins: 1}
	mixed := captureRun(t, cfg).PerWorker[0]
	a, m := rolls(alone, replay.SiteStealInterest), rolls(mixed, replay.SiteStealInterest)
	if len(a) == 0 || len(rolls(mixed, replay.SitePopBottom)) == 0 {
		t.Fatalf("%d steal-interest rolls alone, %d pop-delay rolls mixed: the workload rolls too little",
			len(a), len(rolls(mixed, replay.SitePopBottom)))
	}
	if !reflect.DeepEqual(a, m) {
		t.Fatalf("steal-interest outcomes changed when other sites were armed:\nalone %v\nmixed %v", a, m)
	}
}

// TestReplayMultiWorkerBestEffort: two 4-worker runs of one
// configuration interleave differently — how many rolls each slot makes
// is up to the OS — but the k-th roll at each (slot, site) agrees, so of
// any two runs' roll sequences at a site the shorter is a prefix of the
// longer. This is what the meta rerun of a multi-worker bundle rests on.
func TestReplayMultiWorkerBestEffort(t *testing.T) {
	cfg := replayVariants(4)[0]
	cfg.Seed = 7
	cfg.Chaos = &Chaos{Seed: 11, StealFail: 64, PopBottomDelay: 32, DelaySpins: 2}
	a, b := captureRun(t, cfg), captureRun(t, cfg)
	n := 0
	for w := range a.PerWorker {
		for site := uint8(1); site < replay.NumSites; site++ {
			ra, rb := rolls(a.PerWorker[w], site), rolls(b.PerWorker[w], site)
			k := min(len(ra), len(rb))
			if !slices.Equal(ra[:k], rb[:k]) {
				t.Errorf("slot %d, %s: the runs' first %d rolls differ", w, replay.SiteName(site), k)
			}
			n += k
		}
	}
	if n == 0 {
		t.Fatal("no roll was made in both runs")
	}
}

// TestReplayConfigValidation: a worker-count mismatch between the config
// and an attached recorder is rejected at New.
func TestReplayConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 2, Record: replay.NewRecorder(4, 64)}); err == nil {
		t.Error("recorder worker mismatch accepted")
	}
}

// TestReplayDumpStateShowsSchedule: with recording attached, DumpState
// includes the per-worker schedule tails.
func TestReplayDumpStateShowsSchedule(t *testing.T) {
	cfg := replayVariants(1)[0]
	rec := replay.NewRecorder(1, 64)
	cfg.Record = rec
	rt := MustNew(cfg)
	defer rt.Close()
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	var buf bytes.Buffer
	rt.DumpState(&buf)
	out := buf.String()
	for _, want := range []string{"tokens", "deque", "schedule worker 0:", "inline-run"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("DumpState output missing %q:\n%s", want, out)
		}
	}
}

// TestReplayCountersStayCoherent: recording must not disturb the
// scheduler's counting invariants under multi-worker chaos stress.
func TestReplayCountersStayCoherent(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cfg := replayVariants(4)[0]
		cfg.Seed = seed
		cfg.Chaos = &Chaos{Seed: seed, StealFail: 64, PopBottomDelay: 64, DelaySpins: 2}
		rec := replay.NewRecorder(4, 1<<14)
		cfg.Record = rec
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rt := MustNew(cfg)
			defer rt.Close()
			app := apps.NewFib(apps.Test)
			app.Prepare()
			rt.Run(app.Run)
			if err := app.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			c := rt.Counters()
			if err := c.CheckQuiescent(); err != nil {
				t.Fatal(err)
			}
			if err := rt.CheckIdle(); err != nil {
				t.Fatalf("not idle after the runs: %v", err)
			}
			if rec.Total() == 0 {
				t.Fatal("recorder captured nothing under chaos stress")
			}
		})
	}
}

// counted maps an event kind onto the counters the scheduler bumps at the
// very site that records it, one for one.
var counted = map[replay.Kind][]trace.ID{
	replay.KSpawn:      {trace.Spawns, trace.VesselDispatch},
	replay.KInlineRun:  {trace.Spawns, trace.InlineRuns},
	replay.KPopHit:     {trace.LocalResumes},
	replay.KPopMiss:    {trace.ImplicitSyncs},
	replay.KStealHit:   {trace.Steals},
	replay.KStealEmpty: {trace.FailedSteals},
	replay.KStealLost:  {trace.FailedSteals},
	replay.KSuspend:    {trace.Suspensions},
	replay.KPark:       {trace.ThiefParks},
	replay.KWake:       {trace.ThiefWakeups},
	replay.KWaitBlock:  {trace.BlockedWaits},
	replay.KWaitWake:   {trace.ResumedWaits},
	replay.KWaitAbort:  {trace.AbortedWaits},
}

// recount tallies the counted counters from a log's worker streams; the
// other fields stay zero.
func recount(log *replay.Log) trace.Counters {
	var p trace.Pending
	for _, evs := range log.PerWorker {
		for _, e := range evs {
			for _, id := range counted[e.Kind] {
				p[id]++
			}
		}
	}
	return p.Counters()
}

// TestRecountSyntheticLog: recount tallies a hand-built log across worker
// streams and leaves uncounted kinds (KStrandStart) out.
func TestRecountSyntheticLog(t *testing.T) {
	synthetic := &replay.Log{PerWorker: [][]replay.Event{
		{{Kind: replay.KSpawn}, {Kind: replay.KInlineRun}, {Kind: replay.KStrandStart}},
		{{Kind: replay.KStealHit}, {Kind: replay.KStealLost}},
	}}
	want := trace.Counters{Spawns: 2, VesselDispatch: 1, InlineRuns: 1, Steals: 1, FailedSteals: 1}
	if got := recount(synthetic); got != want {
		t.Errorf("recount = %+v, want %+v", got, want)
	}
}

// TestEventsConsistentWithCounters: the event record and the counters are
// written side by side, so on an untruncated capture of a chaos-free
// runtime's whole life (chaos fails steals without a steal event) the
// events recount every counted counter exactly.
func TestEventsConsistentWithCounters(t *testing.T) {
	rec := replay.NewRecorder(4, 1<<16)
	rt := MustNew(Config{Workers: 4, Record: rec})
	defer rt.Close()
	rt.Run(func(c api.Ctx) { _ = fib(c, 14) })
	log, cnt := rec.Snapshot(), rt.Counters()
	if log.Truncated() {
		t.Fatalf("ring wrapped: %v", log.Dropped)
	}
	sum := recount(log)
	for _, ids := range counted {
		for _, id := range ids {
			if sum.Get(id) != cnt.Get(id) {
				t.Errorf("%v: %d from events, counter %d", id, sum.Get(id), cnt.Get(id))
			}
		}
	}
	if cnt.Spawns == 0 {
		t.Error("fib(14) counted no spawns")
	}
	kinds := map[replay.Kind]int64{}
	for _, evs := range log.PerWorker {
		for _, e := range evs {
			kinds[e.Kind]++
		}
	}
	if kinds[replay.KSuspend] != kinds[replay.KResume] {
		t.Errorf("suspends %d != resumes %d", kinds[replay.KSuspend], kinds[replay.KResume])
	}
	// One strand per eager spawn plus the root, each started and ended.
	if want := cnt.VesselDispatch + 1; kinds[replay.KStrandStart] != want || kinds[replay.KStrandEnd] != want {
		t.Errorf("strand starts %d, ends %d, want %d each",
			kinds[replay.KStrandStart], kinds[replay.KStrandEnd], want)
	}
}

// TestRecorderResetBetweenRuns: Reset between two runs of one runtime
// leaves only the second run's events.
func TestRecorderResetBetweenRuns(t *testing.T) {
	rec := replay.NewRecorder(2, 1<<14)
	rt := MustNew(Config{Workers: 2, Record: rec})
	defer rt.Close()
	rt.Run(func(c api.Ctx) { _ = fib(c, 10) })
	first := rec.Snapshot().Total()
	rec.Reset()
	rt.Run(func(c api.Ctx) { _ = fib(c, 5) })
	if second := rec.Snapshot().Total(); second >= first {
		t.Errorf("second (smaller) run recorded %d events, first %d — Reset kept the old ones", second, first)
	}
}

// TestTraceRegions: under runtime/trace every strand is one "strand"
// region, ended on the normal and the panic path alike; every admitted
// submission is one "submission" task; the token a strand holds is
// logged. It traces a fib run, a run whose eagerly spawned child panics
// and a small service run, then reads the trace back with go tool trace.
func TestTraceRegions(t *testing.T) {
	if rtrace.IsEnabled() {
		t.Skip("runtime/trace is already on: the counts would take in every other test")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary to parse the trace with")
	}
	path := filepath.Join(t.TempDir(), "t.out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rtrace.Start(f); err != nil {
		t.Fatal(err)
	}
	var strands, admitted int64
	func() {
		defer rtrace.Stop()

		rt := MustNew(Config{Workers: 2})
		defer rt.Close()
		rt.Run(func(c api.Ctx) { _ = fib(c, 16) })
		strands += rt.Counters().VesselDispatch + 1

		prt := MustNew(Config{Workers: 2, Spawn: SpawnEager})
		defer prt.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the panicking run did not re-raise")
				}
			}()
			prt.Run(func(c api.Ctx) {
				s := c.Scope()
				s.Spawn(func(api.Ctx) { panic("strand panic") })
				s.Sync()
			})
		}()
		strands += prt.Counters().VesselDispatch + 1

		srt := MustNew(Config{Workers: 2})
		if err := srt.StartService(ServiceConfig{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			sub, err := srt.Submit(func(c api.Ctx) { _ = fib(c, 10) }, SubmitOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		srt.Close()
		st, _ := srt.ServiceStats()
		admitted = st.Admitted
		// The service root, one top strand per submission, one per eager spawn.
		strands += srt.Counters().VesselDispatch + 1 + admitted
	}()

	out, err := exec.Command(goBin, "tool", "trace", "-d=parsed", path).Output()
	if err != nil {
		t.Fatalf("go tool trace: %v", err)
	}
	// Event lines read `M=.. P=.. G=.. <Event> Time=.. [Task=..] Type="..."`.
	n := map[string]int64{}
	for _, line := range strings.Split(string(out), "\n") {
		fs := strings.Fields(line)
		if len(fs) < 5 {
			continue
		}
		switch fs[3] {
		case "RegionBegin", "RegionEnd", "TaskBegin":
			n[fs[3]+" "+fs[len(fs)-1]]++
		case "Log":
			if strings.Contains(line, `Category="token"`) {
				n["token"]++
			}
		}
	}
	begin, end := n[`RegionBegin Type="strand"`], n[`RegionEnd Type="strand"`]
	if begin != end || begin != strands {
		t.Errorf("strand regions: %d begun, %d ended, want %d each", begin, end, strands)
	}
	if got := n[`TaskBegin Type="submission"`]; got != admitted || admitted != 8 {
		t.Errorf("%d submission tasks for %d admitted submissions (8 submitted)", got, admitted)
	}
	if n["token"] < strands {
		t.Errorf("%d token logs for %d strands: every strand logs its token at start", n["token"], strands)
	}
}

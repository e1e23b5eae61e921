package sched

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	rtrace "runtime/trace"
	"strings"
	"testing"

	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/deque"
	"nowa/internal/replay"
	"nowa/internal/trace"
)

// encodeLog canonicalises a captured log into bundle bytes so two
// captures can be compared for byte identity.
func encodeLog(t *testing.T, l *replay.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := replay.WriteBundle(&buf, replay.Meta{Tool: "test", Variant: "x", Workers: l.Workers(), Seed: 1}, l); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	return buf.Bytes()
}

// replayVariants are the four vessel-model configurations, at the given
// worker count, with recording attached.
func replayVariants(workers int) []Config { return variantConfigs(workers) }

// captureRun executes one seeded chaos workload on a fresh runtime built
// from cfg with a fresh recorder, returning the canonical bundle bytes.
func captureRun(t *testing.T, cfg Config) []byte {
	t.Helper()
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
	return encodeLog(t, rec.Snapshot())
}

// TestReplayDeterministicCapture: at Workers=1 a run's schedule is fully
// determined by the configuration and seeds — the single token executes
// the serial depth-first order and every chaos draw comes from a seeded
// stream — so recording the same workload twice must produce
// byte-identical event logs, for every scheduler variant. This is the
// property that makes single-worker repro bundles exact.
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
			a := captureRun(t, cfg)
			b := captureRun(t, cfg)
			if !bytes.Equal(a, b) {
				t.Fatalf("two identically seeded single-worker captures differ (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}

// TestReplaySeedSensitivity guards against the capture being trivially
// constant: a different chaos seed must change the recorded schedule.
func TestReplaySeedSensitivity(t *testing.T) {
	cfg := replayVariants(1)[0]
	cfg.Seed = 7
	mk := func(chaosSeed int64) []byte {
		c := cfg
		c.Chaos = &Chaos{Seed: chaosSeed, StealInterest: 128, DelaySpins: 1}
		return captureRun(t, c)
	}
	if bytes.Equal(mk(11), mk(12)) {
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

// TestReplayReproducesCapturedFailure is the acceptance-criterion test:
// a chaos-induced invariant violation (the planted vessel leak) is
// captured once, and replaying the captured schedule log — under a
// DIFFERENT live chaos seed — reproduces exactly the same violation with
// zero divergences. The live RNG would have made different leak
// decisions; only the log can be steering them.
func TestReplayReproducesCapturedFailure(t *testing.T) {
	// Capture: run with the planted bug and record the schedule.
	cfg := leakConfig(11)
	rec := replay.NewRecorder(cfg.Workers, 1<<15)
	cfg.Record = rec
	rt := MustNew(cfg)
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	leaked := rt.Stats().VesselsLeaked
	rt.Close()
	if leaked <= 0 {
		t.Fatalf("planted LeakVessel bug produced no leak (VesselsLeaked=%d); cannot exercise the pipeline", leaked)
	}
	log := rec.Snapshot()
	if log.Truncated() {
		t.Fatal("capture ring overflowed; grow the test recorder")
	}

	// Replay: same config shape, but a different live chaos seed. The
	// recorded decision stream must drive the rolls to the same leaks.
	recfg := leakConfig(9999)
	recfg.Replay = log
	rrt := MustNew(recfg)
	defer rrt.Close()
	app.Prepare()
	rrt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("replay verify: %v", err)
	}
	if got := rrt.Stats().VesselsLeaked; got != leaked {
		t.Fatalf("replayed run leaked %d vessels, capture leaked %d", got, leaked)
	}
	div, replaying := rrt.ReplayDivergences()
	if !replaying {
		t.Fatal("ReplayDivergences reports the runtime is not replaying")
	}
	if div != 0 {
		t.Fatalf("single-worker replay diverged %d times, want 0", div)
	}

	// Control: the different live seed on its own (no replay log) leaks a
	// different amount, proving the log — not luck — drove the rerun.
	ctrl := MustNew(leakConfig(9999))
	defer ctrl.Close()
	app.Prepare()
	ctrl.Run(app.Run)
	if got := ctrl.Stats().VesselsLeaked; got == leaked {
		t.Skipf("control run coincidentally leaked the same count (%d); inconclusive control, replay assertions above already passed", got)
	}
}

// TestReplayRecordedChaosDecisions: a single-worker capture with chaos
// replays to a byte-identical schedule log when recording is attached to
// the replaying run too — capture of a replay equals the capture.
func TestReplayRecordedChaosDecisions(t *testing.T) {
	cfg := replayVariants(1)[0]
	cfg.Seed = 3
	cfg.Chaos = &Chaos{Seed: 5, StealInterest: 64, PopBottomDelay: 64, DelaySpins: 1}
	rec := replay.NewRecorder(1, 1<<15)
	cfg.Record = rec
	rt := MustNew(cfg)
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	rt.Close()
	log := rec.Snapshot()
	captured := encodeLog(t, log)

	recfg := replayVariants(1)[0]
	recfg.Seed = 3
	// Different live chaos seed; rates must stay nonzero so the injection
	// points still consult the (replayed) rolls.
	recfg.Chaos = &Chaos{Seed: 777, StealInterest: 64, PopBottomDelay: 64, DelaySpins: 1}
	rec2 := replay.NewRecorder(1, 1<<15)
	recfg.Record = rec2
	recfg.Replay = log
	rrt := MustNew(recfg)
	defer rrt.Close()
	app.Prepare()
	rrt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("replay verify: %v", err)
	}
	if n, _ := rrt.ReplayDivergences(); n != 0 {
		t.Fatalf("single-worker replay diverged %d times", n)
	}
	if replayed := encodeLog(t, rec2.Snapshot()); !bytes.Equal(captured, replayed) {
		t.Fatal("recording a replayed run did not reproduce the captured schedule log")
	}
}

// TestReplayMultiWorkerBestEffort: replaying a multi-worker capture must
// complete correctly (divergences allowed — the OS interleaving differs)
// and expose the divergence count.
func TestReplayMultiWorkerBestEffort(t *testing.T) {
	cfg := replayVariants(4)[0]
	cfg.Seed = 7
	cfg.Chaos = &Chaos{Seed: 11, StealFail: 64, PopBottomDelay: 32, DelaySpins: 2}
	rec := replay.NewRecorder(4, 1<<15)
	cfg.Record = rec
	rt := MustNew(cfg)
	app := apps.NewFib(apps.Test)
	app.Prepare()
	rt.Run(app.Run)
	rt.Close()

	recfg := cfg
	recfg.Record = nil
	recfg.Replay = rec.Snapshot()
	rrt := MustNew(recfg)
	defer rrt.Close()
	app.Prepare()
	rrt.Run(app.Run)
	if err := app.Verify(); err != nil {
		t.Fatalf("multi-worker replay broke the computation: %v", err)
	}
	if _, replaying := rrt.ReplayDivergences(); !replaying {
		t.Fatal("ReplayDivergences reports not replaying")
	}
	// Token conservation still holds under replay.
	if err := rrt.CheckIdle(); err != nil {
		t.Fatalf("not idle after the runs: %v", err)
	}
}

// TestReplayConfigValidation: worker-count mismatches between the config
// and an attached recorder or log are rejected at New.
func TestReplayConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 2, Record: replay.NewRecorder(4, 64)}); err == nil {
		t.Error("recorder worker mismatch accepted")
	}
	log := &replay.Log{PerWorker: make([][]replay.Event, 3), Dropped: make([]uint64, 3)}
	if _, err := New(Config{Workers: 2, Replay: log}); err == nil {
		t.Error("replay log worker mismatch accepted")
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

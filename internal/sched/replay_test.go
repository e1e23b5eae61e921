package sched

import (
	"bytes"
	"fmt"
	"testing"

	"nowa/internal/apps"
	"nowa/internal/deque"
	"nowa/internal/replay"
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
				AllocFail:      32,
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
		c.Chaos = &Chaos{Seed: chaosSeed, AllocFail: 128, DelaySpins: 1}
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
// the replaying run too — capture of a replay equals the capture. The
// replaying run records with the time lane on, the capture with it off:
// the lane is wall-clock and must stay out of the bundle.
func TestReplayRecordedChaosDecisions(t *testing.T) {
	cfg := replayVariants(1)[0]
	cfg.Seed = 3
	cfg.Chaos = &Chaos{Seed: 5, AllocFail: 64, PopBottomDelay: 64, DelaySpins: 1}
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
	recfg.Chaos = &Chaos{Seed: 777, AllocFail: 64, PopBottomDelay: 64, DelaySpins: 1}
	rec2 := replay.NewTimedRecorder(1, 1<<15)
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
	relog := rec2.Snapshot()
	if replayed := encodeLog(t, relog); !bytes.Equal(captured, replayed) {
		t.Fatal("recording a replayed run did not reproduce the captured schedule log")
	}
	if len(relog.Times) != 1 || len(relog.Times[0]) != len(relog.PerWorker[0]) {
		t.Fatal("timed recorder produced no time lane")
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
// includes the per-worker schedule tails the watchdog embeds in stall
// reports.
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

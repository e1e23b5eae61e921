package tracelog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nowa/internal/api"
	"nowa/internal/replay"
	"nowa/internal/sched"
	"nowa/internal/trace"
)

func fib(c api.Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a int
	s := c.Scope()
	s.Spawn(func(c api.Ctx) { a = fib(c, n-1) })
	b := fib(c, n-2)
	s.Sync()
	return a + b
}

// runTraced executes fib under a timed recorder of the given ring size
// and returns the log with the runtime's counters.
func runTraced(t *testing.T, workers, n, ringCap int) (*replay.Log, trace.Counters) {
	t.Helper()
	rec := replay.NewTimedRecorder(workers, ringCap)
	rt := sched.MustNew(sched.Config{Workers: workers, Record: rec})
	defer rt.Close()
	var got int
	rt.Run(func(c api.Ctx) { got = fib(c, n) })
	if got == 0 {
		t.Fatal("fib returned 0")
	}
	return rec.Snapshot(), rt.Counters()
}

func TestEventsConsistentWithCounters(t *testing.T) {
	log, cnt := runTraced(t, 4, 14, 1<<16)
	if log.Truncated() {
		t.Fatalf("ring wrapped: %v", log.Dropped)
	}
	sum := Summary(log)
	for _, id := range Derived() {
		if sum.Get(id) != cnt.Get(id) {
			t.Errorf("%v: %d from events, counter %d", id, sum.Get(id), cnt.Get(id))
		}
	}
	if cnt.Spawns == 0 || sum.Spawns != cnt.Spawns {
		t.Errorf("spawn events %d, counter %d", sum.Spawns, cnt.Spawns)
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

func TestTimesOrderedPerWorker(t *testing.T) {
	log, _ := runTraced(t, 4, 14, 1<<16)
	if log.Total() == 0 {
		t.Fatal("no events")
	}
	for w, ts := range log.Times {
		if len(ts) != len(log.PerWorker[w]) {
			t.Fatalf("worker %d: %d stamps for %d events", w, len(ts), len(log.PerWorker[w]))
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("worker %d: stamps out of order at %d: %v > %v", w, i, ts[i-1], ts[i])
			}
		}
	}
}

// chromeRows parses a Chrome trace and checks its shape: valid JSON,
// timestamps in order, and per worker row every B balanced by an E with
// the depth never negative. It returns the events by name.
func chromeRows(t *testing.T, log *replay.Log) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, log); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	names := map[string]int{}
	depth := map[int]int{}
	last := 0.0
	for _, e := range parsed.TraceEvents {
		names[e.Name]++
		if e.TS < last {
			t.Fatalf("trace out of order: %v after %v", e.TS, last)
		}
		last = e.TS
		switch e.Phase {
		case "B":
			depth[e.TID]++
		case "E":
			if depth[e.TID]--; depth[e.TID] < 0 {
				t.Fatalf("worker %d: strand end without a start", e.TID)
			}
		}
		if e.Name == "steal" {
			if _, ok := e.Args["victim"]; !ok {
				t.Errorf("steal instant without a victim: %+v", e)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("worker %d has unbalanced strand slices (%d)", tid, d)
		}
	}
	return names
}

func TestChromeTrace(t *testing.T) {
	log, cnt := runTraced(t, 4, 14, 1<<16)
	names := chromeRows(t, log)
	if int64(names["steal"]) != cnt.Steals {
		t.Errorf("%d steal instants, %d steals", names["steal"], cnt.Steals)
	}
	if names["strand"] == 0 {
		t.Error("no strand slices")
	}
}

// TestChromeTraceWrappedRing: a ring far smaller than the run keeps only
// the newest events — starting mid-strand — and must still convert to a
// well-formed trace, with the loss reported.
func TestChromeTraceWrappedRing(t *testing.T) {
	log, _ := runTraced(t, 4, 16, 64)
	if !log.Truncated() {
		t.Fatal("a 64-event ring did not wrap on fib(16)")
	}
	for w, evs := range log.PerWorker {
		if len(evs) > 64 {
			t.Errorf("worker %d kept %d events in a 64-event ring", w, len(evs))
		}
	}
	chromeRows(t, log)
}

func TestUntimedLogRejected(t *testing.T) {
	rec := replay.NewRecorder(1, 16)
	rec.Record(0, replay.KSpawn, 0, 0)
	if err := WriteChromeTrace(&bytes.Buffer{}, rec.Snapshot()); err == nil {
		t.Error("a log without a time lane converted")
	}
}

func TestSummaryAndFormat(t *testing.T) {
	log := &replay.Log{
		PerWorker: [][]replay.Event{
			{{Kind: replay.KSpawn}, {Kind: replay.KInlineRun}, {Kind: replay.KStrandStart}},
			{{Kind: replay.KStealHit, Arg: 0}, {Kind: replay.KStealLost, Arg: 0}},
		},
		Times: [][]time.Duration{{1, 3, 4}, {2, 5}},
	}
	c := Summary(log)
	want := trace.Counters{Spawns: 2, VesselDispatch: 1, InlineRuns: 1, Steals: 1, FailedSteals: 1}
	if c != want {
		t.Errorf("summary = %+v, want %+v", c, want)
	}
	s := FormatSummary(log)
	if !strings.Contains(s, "Spawns") || !strings.Contains(s, "2") || len(strings.Split(strings.TrimSpace(s), "\n")) != len(Derived()) {
		t.Errorf("formatted: %q", s)
	}
}

func TestRecorderResetBetweenRuns(t *testing.T) {
	rec := replay.NewTimedRecorder(2, 1<<14)
	rt := sched.MustNew(sched.Config{Workers: 2, Record: rec})
	defer rt.Close()
	rt.Run(func(c api.Ctx) { _ = fib(c, 10) })
	first := rec.Snapshot().Total()
	rec.Reset()
	rt.Run(func(c api.Ctx) { _ = fib(c, 5) })
	second := rec.Snapshot()
	if second.Total() >= first {
		t.Errorf("second (smaller) run recorded %d events, first %d — Reset kept the old ones", second.Total(), first)
	}
	if ts := second.Times[0]; len(ts) == 0 || ts[0] > time.Second {
		t.Errorf("Reset did not restart the time lane: %v", ts)
	}
}

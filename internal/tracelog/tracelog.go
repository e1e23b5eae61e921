// Package tracelog converts a timed schedule log (replay.Log with its
// time lane, see replay.NewTimedRecorder) into the Chrome trace event
// format (the JSON consumed by chrome://tracing and Perfetto), so a real
// run's strand-to-worker mapping — the paper's Figure 4 pictures — can
// be inspected visually.
package tracelog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"nowa/internal/replay"
	"nowa/internal/trace"
)

// chromeEvent is one entry of the Chrome trace "traceEvents" array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace converts the log's worker streams to Chrome trace
// JSON. Strand executions appear as duration slices per worker row;
// steals carry their victim; every other event is an instant named by
// its kind. A log whose rings wrapped (Log.Truncated) still converts:
// it simply starts mid-run.
func WriteChromeTrace(w io.Writer, log *replay.Log) error {
	if log.Times == nil {
		return errors.New("tracelog: log has no time lane (record with replay.NewTimedRecorder)")
	}
	type stamped struct {
		ts     float64
		worker int
		ev     replay.Event
	}
	var events []stamped
	for wk, evs := range log.PerWorker {
		for i, e := range evs {
			events = append(events, stamped{float64(log.Times[wk][i].Nanoseconds()) / 1e3, wk, e})
		}
	}
	// Each stream is already in time order; the stable sort interleaves them.
	sort.SliceStable(events, func(i, j int) bool { return events[i].ts < events[j].ts })

	out := chromeTrace{DisplayTimeUnit: "ns"}
	add := func(name, phase string, e stamped, args map[string]any) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Phase: phase, TS: e.ts, PID: 1, TID: e.worker, Args: args,
		})
	}
	// Strands may end on a different worker than they started on (worker
	// tokens migrate with stolen continuations), so per-row B/E pairs are
	// kept balanced with a depth counter: an end with no open slice on
	// its row renders as an instant "strand-end (migrated)".
	depth := make([]int, len(log.PerWorker))
	for _, e := range events {
		switch e.ev.Kind {
		case replay.KStrandStart:
			add("strand", "B", e, nil)
			depth[e.worker]++
		case replay.KStrandEnd:
			if depth[e.worker] > 0 {
				add("strand", "E", e, nil)
				depth[e.worker]--
			} else {
				add("strand-end (migrated)", "i", e, nil)
			}
		case replay.KStealHit:
			add("steal", "i", e, map[string]any{"victim": e.ev.Arg})
		default:
			add(e.ev.String(), "i", e, nil)
		}
	}
	// Close slices whose ends happened on other rows.
	for wk, d := range depth {
		for ; d > 0; d-- {
			add("strand", "E", stamped{ts: events[len(events)-1].ts, worker: wk}, nil)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// counted maps an event kind onto the trace counters the scheduler bumps
// at the very site that records it, one for one.
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

// Derived lists, in ID order, the counters Summary reconstructs.
func Derived() []trace.ID {
	var seen [trace.NumCounters]bool
	for _, ids := range counted {
		for _, id := range ids {
			seen[id] = true
		}
	}
	var out []trace.ID
	for id, ok := range seen {
		if ok {
			out = append(out, trace.ID(id))
		}
	}
	return out
}

// Summary recounts the Derived counters from the log's worker streams.
// On an untruncated capture of a chaos-free runtime's whole life they
// equal the runtime's own Counters (chaos fails steals without a steal
// event); the other fields stay zero.
func Summary(log *replay.Log) trace.Counters {
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

// FormatSummary renders the summary deterministically, one Derived
// counter per line.
func FormatSummary(log *replay.Log) string {
	c := Summary(log)
	var b strings.Builder
	for _, id := range Derived() {
		fmt.Fprintf(&b, "%-16s %8d\n", id, c.Get(id))
	}
	return b.String()
}

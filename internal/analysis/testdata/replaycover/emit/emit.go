// Package emit is the replaycover corpus record side.
package emit

import "corpus/replaycover/replay"

// Trace records one event of each emitted class.
func Trace(r *replay.Recorder) {
	r.Record(0, replay.KUsed)
	r.Record(0, replay.KAfter)
	r.Record(0, outcome(true))
}

// outcome classifies a result into the kind that gets recorded: a
// Kind-returning helper, so the constants it references count as
// emitted.
func outcome(hit bool) replay.Kind {
	if hit {
		return replay.KOutcome
	}
	return replay.KNone
}

// Package replay is the replaycover corpus vocabulary: a miniature
// Kind/Recorder pair with one constant per coverage class.
package replay

// Kind labels one recorded event.
type Kind uint8

const (
	// KNone is the zero Kind; exempt from coverage.
	KNone Kind = iota
	// KUsed is recorded by the emit package: clean.
	KUsed
	// KDead is declared but never emitted anywhere.
	KDead
	// KOutcome is returned by a Kind-classifying helper: clean.
	KOutcome
	// A blank holds a retired kind's number: nothing can name it, so it
	// is no vocabulary: clean.
	_
	// KAfter follows the blank and is recorded: clean.
	KAfter
)

// Recorder appends events.
type Recorder struct{ log []Kind }

// Record logs one event on worker w's stream.
func (r *Recorder) Record(w int, k Kind) { r.log = append(r.log, k) }

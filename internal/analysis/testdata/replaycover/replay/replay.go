// Package replay is the replaycover corpus vocabulary: a miniature
// Kind/Recorder/Cursor trio with one constant per coverage class.
package replay

// Kind labels one recorded event.
type Kind uint8

const (
	// KNone is the zero Kind; exempt from coverage.
	KNone Kind = iota
	// KUsed is recorded by the emit package and consumed by the cursor.
	KUsed
	// KDiag is recorded and declared trace-only.
	//nowa:replay-diagnostic corpus negative: inspection-only marker
	KDiag
	// KDead is declared but never emitted anywhere.
	KDead
	// KAsym is emitted but neither consumed nor annotated.
	KAsym
	// KOdd is consumed by the cursor yet annotated trace-only.
	//nowa:replay-diagnostic corpus positive: contradicted by the cursor below
	KOdd
	// KHeld is deliberately unemitted reserved space: clean.
	//nowa:replay-reserved corpus negative: encoding space held for a future event
	KHeld
	// KOver is annotated reserved yet the emit package records it.
	//nowa:replay-reserved corpus positive: contradicted by the emit package
	KOver
	// A blank holds a retired kind's number: nothing can name it, so it
	// is no vocabulary: clean.
	_
	// KAfter follows the blank and is recorded and consumed: clean.
	KAfter
)

// Recorder appends events.
type Recorder struct{ log []Kind }

// Record logs one event on worker w's stream.
func (r *Recorder) Record(w int, k Kind) { r.log = append(r.log, k) }

// Cursor walks a log, yielding decisions.
type Cursor struct {
	log []Kind
	i   int
}

// Next returns the next decision event.
func (c *Cursor) Next() (Kind, bool) {
	for c.i < len(c.log) {
		k := c.log[c.i]
		c.i++
		if isDecision(k) {
			return k, true
		}
	}
	return KNone, false
}

// isDecision is reached from the cursor: everything it references counts
// as consumed.
func isDecision(k Kind) bool { return k == KUsed || k == KOdd || k == KAfter }

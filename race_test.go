//go:build race

package nowa_test

// raceEnabled reports whether the race detector instruments this build;
// the timing gates skip under it, whose per-access bookkeeping multiplies
// what they measure.
const raceEnabled = true

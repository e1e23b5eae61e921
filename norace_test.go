//go:build !race

package nowa_test

// raceEnabled reports whether the race detector instruments this build
// (see race_test.go).
const raceEnabled = false

//go:build !nowacheck

package cqs

// segSize is the number of cells per segment. 64 state words plus
// handles keeps a segment within a couple of cache lines per active
// waiter while making whole-segment abort (the unlink trigger) common
// under storms. Under -tags nowacheck it is 2 (segsize_check.go).
const segSize = 64

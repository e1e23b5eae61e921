//go:build nowacheck

package cqs

// segSize is 2 under the interleaving checks, a test seam: three tickets
// cross a segment boundary, two aborts unlink a segment.
const segSize = 2

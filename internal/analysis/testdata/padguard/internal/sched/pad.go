// Package sched mirrors the real internal/sched path suffix so the
// padguard scope rule applies to this corpus package.
package sched

import (
	"sync/atomic"
	"unsafe"

	"corpus/padguard/internal/atomicx"
)

// naked has an atomic field but neither pad nor guard: two findings.
type naked struct {
	n atomic.Int64
}

// padded carries the full pattern and must pass.
type padded struct {
	n atomic.Int64
	_ [120]byte
}

const (
	_ uintptr = unsafe.Sizeof(padded{}) - 128
	_ uintptr = 128 - unsafe.Sizeof(padded{})
)

// exempt is annotated out of the pattern.
//
//nowa:nopad corpus: singleton, no adjacent instances to false-share with
type exempt struct {
	n atomic.Int64
}

// inert has no atomic fields and is out of the analyzer's scope.
type inert struct {
	a, b int
}

// raw holds a bare word driven through the sync/atomic functions; it is
// policed exactly like the wrapper types: two findings.
type raw struct {
	word uint32
}

func (r *raw) hit() {
	atomic.AddUint32(&r.word, 1)
}

// cells is a per-worker block of atomic cells behind a named array type,
// the shape of the trace counters.
type cells [4]atomic.Int64

// bareBlock embeds the cells with neither pad nor guard: two findings.
type bareBlock struct {
	cells
}

// paddedBlock rounds the embedded cells up to the 128-byte unit and
// guards the arithmetic; it must pass.
type paddedBlock struct {
	cells
	_ [128 - unsafe.Sizeof(cells{})%128]byte
}

const _ uintptr = -(unsafe.Sizeof(paddedBlock{}) % 128)

// The deques declare their words through internal/atomicx; a header of
// those types is policed like its sync/atomic twin: two findings each.
type nakedX struct {
	n atomicx.Int64
}

type nakedRing struct {
	ring atomicx.Pointer[int]
}

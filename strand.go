//go:build !nowacheck

package nowa

import "nowa/internal/sched"

// proc and waiter are the scheduler types the blocking primitives name.
// Built with -tags nowacheck they are strand_check.go's stand-ins, so that
// channel.go and blocking.go run as they are under internal/atomicx's
// interleaving controller.
type (
	proc   = sched.Proc
	waiter = sched.Waiter
)

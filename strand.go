//go:build !nowacheck

package nowa

import (
	"context"

	"nowa/internal/sched"
)

// proc and waiter are the scheduler types the blocking primitives name.
// Built with -tags nowacheck they are strand_check.go's stand-ins, so that
// channel.go and blocking.go run as they are under internal/atomicx's
// interleaving controller.
type (
	proc   = sched.Proc
	waiter = sched.Waiter
)

// afterFunc arms a blocked wait's abort: f runs once ctx is done, unless
// stop runs first (parkWait).
func afterFunc(ctx context.Context, f func()) (stop func() bool) { return context.AfterFunc(ctx, f) }

// Package core implements the Nowa paper's primary contribution (§IV):
// wait-free coordination of the strands of a fully-strict fork/join
// computation, the lock-based Fibril-style baseline it is compared against,
// and WakeQueue, the scheduler's lock-free wake FIFO (DESIGN.md §16.2).
//
// # The problem (§III-C)
//
// In a continuation-stealing runtime, a worker returning from a spawned
// child pops its own deque. An empty pop means the continuation was stolen,
// so the worker must join: decrement the count of active parallel strands
// N_r and test the sync condition N_r == 0. The hazard: a thief may have
// already popped the continuation but not yet incremented N_r, so the
// joining worker can observe a spurious zero and erroneously release the
// sync point. Lock-based runtimes (Fibril, Cilk Plus, OpenCilk) close the
// window by coupling the deque lock and the frame lock (Listing 2 of the
// paper), serialising every steal and every join on hot frames.
//
// # The Nowa transformation (§IV-A, §IV-B)
//
// Decompose N_r = α − ω, where α counts actually forked (stolen)
// continuations and ω counts joined strands. Observe:
//
//	Invariant I.   N_r cannot reach zero before the explicit sync point is
//	               reached — the strand heading there is still active.
//	Invariant II.  α is mutated only by the single control flow along the
//	               main path (the thief that steals a continuation becomes
//	               that flow), so α needs no synchronisation.
//	Invariant III. After the explicit sync point is reached no further
//	               steals can occur and α is immutable.
//	Invariant IV.  Joiners need only a boolean is-positive test of N_r,
//	               never its exact value.
//
// Run phase 1 on the proxy counter N_r' = I_max − ω: initialise the
// sync-condition counter to I_max, let every joiner atomically decrement
// it. A joiner can only observe zero if more than I_max strands spawned —
// impossible for I_max = 2^63 − 1 — so the spurious-zero race becomes
// benign. When the main path reaches the explicit sync point it restores
// the true count with a single atomic subtraction (Eq. 5):
//
//	N_r = N_r' − (I_max − α)
//
// From then on the counter holds α − ω and exactly one operation — the
// restore itself or a subsequent joiner's decrement — observes zero. That
// observation is the ticket to release the sync point. Every operation is
// a single atomic fetch-and-add: the protocol is wait-free.
package core

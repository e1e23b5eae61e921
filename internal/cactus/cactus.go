// Package cactus manages the stack objects backing the strands of the
// runtime — the practical cactus-stack machinery of §II-C/§V-B.
//
// In the paper, every spawned function instance may need a fresh linear
// stack; Nowa and Fibril keep small per-worker buffers of stacks plus a
// global pool that recirculates stacks whose ownership changed through
// work-stealing. Cilk Plus bounds the total number of stacks and stops
// workers from stealing when the bound is hit.
//
// In this reproduction, strands execute on pooled goroutines ("vessels")
// whose payload is a Stack: a byte arena standing in for the 1 MiB linear
// stack of the original. The pool reproduces the paper-relevant dynamics:
//
//   - per-worker buffer hits are cheap; overflow/underflow goes through a
//     single mutex-protected global pool (the cholesky bottleneck of §V-A);
//   - optional madvise mode models the "practical solution to the cactus
//     stack problem": returning a stack releases its physical pages (we
//     clear the arena, doing work proportional to its size, as the kernel
//     would) and reusing it faults them back in (we touch each page);
//   - resident-set accounting gives the Table II numbers.
package cactus

import (
	"sync"
	"sync/atomic"
)

// pageBytes is the page-residency accounting granularity.
const pageBytes = 4096

// Stack is the payload of a strand vessel: a byte arena standing in for a
// linear stack, with page-residency accounting.
type Stack struct {
	data     []byte
	resident bool // physical pages currently counted as resident
	pool     *Pool
}

// Bytes exposes the arena, e.g. for tests that want to dirty it.
func (s *Stack) Bytes() []byte { return s.data }

// Resident reports whether the stack's pages are accounted as resident.
func (s *Stack) Resident() bool { return s.resident }

// Config parameterises a Pool.
type Config struct {
	// Workers is the number of per-worker buffers.
	Workers int
	// PerWorkerCap bounds each worker's local buffer (default 4).
	PerWorkerCap int
	// GlobalCap, if positive, bounds the TOTAL number of stacks live at
	// once (the Cilk Plus strategy); Get fails once it is reached and
	// nothing is free, and the failing thief stops stealing until a stack
	// is returned. Zero means unbounded.
	GlobalCap int
	// StackBytes is the arena size per stack (default 64 KiB; the paper
	// used 1 MiB stacks — scaled down to keep test memory modest while
	// preserving the cost *ratios*).
	StackBytes int
	// Madvise enables the practical cactus-stack solution: Put releases
	// physical pages, Get faults them back.
	Madvise bool
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PerWorkerCap <= 0 {
		c.PerWorkerCap = 4
	}
	if c.StackBytes <= 0 {
		c.StackBytes = 64 << 10
	}
}

// Stats is a snapshot of pool accounting.
type Stats struct {
	Allocated     int64 // stacks currently live
	LocalGets     int64 // served from a per-worker buffer
	GlobalGets    int64 // served from the global pool
	FreshGets     int64 // newly allocated
	FailedGets    int64 // GlobalCap exhausted
	LocalPuts     int64
	GlobalPuts    int64
	MadviseCalls  int64
	PageFaults    int64 // pages touched back in after a release
	ResidentBytes int64 // current accounted RSS of all stacks
	PeakRSSBytes  int64 // high-water mark of ResidentBytes
}

// Pool recirculates stacks between workers.
type Pool struct {
	cfg Config

	local []localBuf

	mu     sync.Mutex
	global []*Stack

	allocated    atomic.Int64
	localGets    atomic.Int64
	globalGets   atomic.Int64
	freshGets    atomic.Int64
	failedGets   atomic.Int64
	localPuts    atomic.Int64
	globalPuts   atomic.Int64
	madviseCalls atomic.Int64
	pageFaults   atomic.Int64
	resident     atomic.Int64
	peak         atomic.Int64
}

type localBuf struct {
	mu     sync.Mutex
	stacks []*Stack
	_      [32]byte
}

// NewPool creates a pool with the given configuration.
func NewPool(cfg Config) *Pool {
	cfg.fill()
	return &Pool{cfg: cfg, local: make([]localBuf, cfg.Workers)}
}

// Config returns the pool's effective configuration.
func (p *Pool) Config() Config { return p.cfg }

// Get obtains a stack for the given worker: local buffer first, then the
// global pool, then a fresh allocation. It reports false only when a
// GlobalCap is configured and exhausted; the caller must then stop
// stealing until a stack is returned (§II-C, the Cilk Plus comparator).
//
//nowa:coldpath stacks are charged only on steals and at Run start; the pool interaction (locks, possible fresh allocation) is the documented price of a steal
func (p *Pool) Get(worker int) (*Stack, bool) {
	lb := &p.local[worker]
	lb.mu.Lock()
	if n := len(lb.stacks); n > 0 {
		s := lb.stacks[n-1]
		lb.stacks[n-1] = nil
		lb.stacks = lb.stacks[:n-1]
		lb.mu.Unlock()
		p.localGets.Add(1)
		p.makeResident(s)
		return s, true
	}
	lb.mu.Unlock()

	p.mu.Lock()
	if n := len(p.global); n > 0 {
		s := p.global[n-1]
		p.global[n-1] = nil
		p.global = p.global[:n-1]
		p.mu.Unlock()
		p.globalGets.Add(1)
		p.makeResident(s)
		return s, true
	}
	p.mu.Unlock()
	if !p.reserve() {
		p.failedGets.Add(1)
		return nil, false
	}

	s := &Stack{data: make([]byte, p.cfg.StackBytes), pool: p}
	p.freshGets.Add(1)
	s.resident = true
	p.addResident(int64(len(s.data)))
	return s, true
}

// reserve atomically claims one slot of the GlobalCap budget (always
// succeeds when unbounded). The CAS loop makes the check-then-allocate a
// single linearisable step: two concurrent callers racing for the last
// slot cannot both pass the cap test.
func (p *Pool) reserve() bool {
	cap64 := int64(p.cfg.GlobalCap)
	if cap64 <= 0 {
		p.allocated.Add(1)
		return true
	}
	for {
		n := p.allocated.Load()
		if n >= cap64 {
			return false
		}
		if p.allocated.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Put returns a stack to the worker's buffer, overflowing to the global
// pool. In madvise mode the stack's physical pages are released first.
//
//nowa:coldpath stack release pairs with a prior steal's Get; like Get it is off the spawn ladder
func (p *Pool) Put(worker int, s *Stack) {
	if s == nil {
		return
	}
	if p.cfg.Madvise {
		p.release(s)
	}
	lb := &p.local[worker]
	lb.mu.Lock()
	if len(lb.stacks) < p.cfg.PerWorkerCap {
		lb.stacks = append(lb.stacks, s)
		lb.mu.Unlock()
		p.localPuts.Add(1)
		return
	}
	lb.mu.Unlock()
	p.mu.Lock()
	p.global = append(p.global, s)
	p.mu.Unlock()
	p.globalPuts.Add(1)
}

// FreeCount reports how many stacks currently sit in the free lists
// (global plus per-worker). With no Get/Put in flight, Allocated minus
// FreeCount is the number of stacks checked out — the leak reconciliation
// the scheduler runs at Close.
func (p *Pool) FreeCount() int {
	n := 0
	p.mu.Lock()
	n += len(p.global)
	p.mu.Unlock()
	for i := range p.local {
		lb := &p.local[i]
		lb.mu.Lock()
		n += len(lb.stacks)
		lb.mu.Unlock()
	}
	return n
}

// release models madvise(MADV_FREE): account the pages out and do work
// proportional to the arena, as the kernel's page reclamation would.
func (p *Pool) release(s *Stack) {
	if !s.resident {
		return
	}
	s.resident = false
	p.madviseCalls.Add(1)
	clear(s.data)
	p.addResident(-int64(len(s.data)))
}

// makeResident models the page faults of touching a released stack.
func (p *Pool) makeResident(s *Stack) {
	if s.resident {
		return
	}
	s.resident = true
	pages := int64(0)
	for i := 0; i < len(s.data); i += pageBytes {
		s.data[i] = 1 // fault the page back in
		pages++
	}
	p.pageFaults.Add(pages)
	p.addResident(int64(len(s.data)))
}

func (p *Pool) addResident(delta int64) {
	r := p.resident.Add(delta)
	for {
		peak := p.peak.Load()
		if r <= peak || p.peak.CompareAndSwap(peak, r) {
			return
		}
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocated:     p.allocated.Load(),
		LocalGets:     p.localGets.Load(),
		GlobalGets:    p.globalGets.Load(),
		FreshGets:     p.freshGets.Load(),
		FailedGets:    p.failedGets.Load(),
		LocalPuts:     p.localPuts.Load(),
		GlobalPuts:    p.globalPuts.Load(),
		MadviseCalls:  p.madviseCalls.Load(),
		PageFaults:    p.pageFaults.Load(),
		ResidentBytes: p.resident.Load(),
		PeakRSSBytes:  p.peak.Load(),
	}
}

package core

import (
	"sync"
	"testing"
)

func TestWakeQueueFIFO(t *testing.T) {
	var q WakeQueue[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if !q.Pending() {
		t.Fatal("pending = false after 10 pushes")
	}
	for i := 0; i < 10; i++ {
		h, ok := q.Pop()
		if !ok || h != i {
			t.Fatalf("pop %d: got (%d, %v)", i, h, ok)
		}
	}
	if q.Pending() {
		t.Fatal("pending after drain")
	}
}

// TestWakeQueueZeroValue: a declared WakeQueue needs no constructor
// (the benchmark's ledger declares one). Before any push it reads empty
// without linking a queue; pushers racing on first use all land in the
// one queue their CAS agreed on.
func TestWakeQueueZeroValue(t *testing.T) {
	var q WakeQueue[int]
	if q.Pending() {
		t.Fatal("zero value pending")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from zero value succeeded")
	}
	if q.q.Load() != nil {
		t.Fatal("a read linked a queue")
	}
	const pushers = 8
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			q.Push(h)
		}(p)
	}
	wg.Wait()
	seen := make([]bool, pushers)
	for i := 0; i < pushers; i++ {
		h, ok := q.Pop()
		if !ok || seen[h] {
			t.Fatalf("pop %d: got (%d, %v), a first-use push was lost or duplicated", i, h, ok)
		}
		seen[h] = true
	}
	if _, ok := q.Pop(); ok || q.Pending() {
		t.Fatal("queue not empty after popping every push")
	}
}

// TestWakeQueueConcurrent checks that concurrent pushers and poppers
// neither lose nor duplicate a handle. The poppers pop without waiting
// for Pending, so they claim tickets whose push has not registered yet:
// those pushes find a deposit and take a second ticket.
func TestWakeQueueConcurrent(t *testing.T) {
	const (
		pushers = 8
		poppers = 8
		perPush = 4000
	)
	var q WakeQueue[int]
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perPush; i++ {
				q.Push(base + i)
			}
		}(p * perPush)
	}
	seen := make([]bool, pushers*perPush)
	var popped int
	var mu sync.Mutex
	var pw sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < poppers; c++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			for {
				h, ok := q.Pop()
				if !ok {
					select {
					case <-done:
						return
					default:
						continue
					}
				}
				mu.Lock()
				if seen[h] {
					t.Errorf("handle %d popped twice", h)
				}
				seen[h] = true
				popped++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	pw.Wait()
	// The poppers may have exited between the last push and their done
	// check; drain the remainder inline.
	for {
		h, ok := q.Pop()
		if !ok {
			break
		}
		if seen[h] {
			t.Fatalf("handle %d popped twice", h)
		}
		seen[h] = true
		popped++
	}
	if popped != pushers*perPush {
		t.Fatalf("popped %d of %d handles", popped, pushers*perPush)
	}
	if q.Pending() {
		t.Fatal("pending after every handle was popped")
	}
	t.Logf("%d pushes, %d re-enqueued after a deposit", pushers*perPush, q.q.Load().Enqueued()-pushers*perPush)
}

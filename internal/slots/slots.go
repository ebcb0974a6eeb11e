// Package slots is the CPU budget every analysis shares: a counting
// semaphore of slots, one per core the caller may keep busy, and Group,
// the one way a computation fans independent units of work out over it.
//
// A pipeline stage holds one slot while it runs (a blocking send on the
// Pool). Inside, the stage's own goroutine runs its units; a Group also
// starts helpers, but only on slots it can take without waiting
// (TryAcquire), and a helper gives its slot back after every unit. So a
// lone analysis keeps every idle core busy, a saturated daemon runs
// exactly as many goroutines as it has slots, and a stage waiting for a
// slot waits at most one unit of some other stage's fan-out.
package slots

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Pool is a counting semaphore: a send takes a slot, a receive gives it
// back. Blocking acquirers (the stage scheduler) send directly, under a
// select with their context. A nil Pool has no slots.
type Pool chan struct{}

// New returns a pool of n slots.
func New(n int) Pool { return make(Pool, n) }

// TryAcquire takes a slot if one is free right now.
func (p Pool) TryAcquire() bool {
	select {
	case p <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release gives back a slot taken by TryAcquire or a send.
func (p Pool) Release() { <-p }

// Panic is a unit's panic carried to the goroutine that called Wait,
// with the stack of the goroutine the unit panicked on.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("%v", p.Value) }

// Group runs independent units of work on its caller's goroutine plus
// helpers started on slots borrowed from a Pool. Units must write only
// state of their own; Wait is the synchronization point after which the
// caller may read it.
type Group struct {
	pool    Pool
	mu      sync.Mutex
	queue   []func()
	panic   *Panic
	helpers sync.WaitGroup
}

// NewGroup returns a group borrowing helper slots from p. With a nil p
// every unit runs on the caller, in Wait.
func NewGroup(p Pool) *Group { return &Group{pool: p} }

// Go queues unit and, when a slot is free right now, starts a helper.
func (g *Group) Go(unit func()) {
	g.mu.Lock()
	g.queue = append(g.queue, unit)
	g.mu.Unlock()
	g.spawn()
}

// Wait runs the units still queued on the caller, trying to start a
// helper before each one, and returns once every helper has exited. If
// a unit panicked, the remaining queued units are dropped and Wait
// re-panics with that first panic as a *Panic. Wait is safe to defer:
// a caller that panics between Go calls still leaves no helper behind.
func (g *Group) Wait() {
	for unit := g.pop(); unit != nil; unit = g.pop() {
		g.spawn() // for the unit after this one
		g.run(unit)
	}
	g.helpers.Wait()
	if g.panic != nil {
		panic(g.panic)
	}
}

// spawn starts a helper on a free slot if a unit is waiting. The helper
// runs one unit per slot it holds, giving the slot back after each, and
// exits when it cannot re-take one or finds the queue empty.
func (g *Group) spawn() {
	if !g.waiting() || !g.pool.TryAcquire() {
		return
	}
	g.helpers.Add(1)
	go func() {
		defer g.helpers.Done()
		for unit := g.pop(); unit != nil; unit = g.pop() {
			g.run(unit)
			g.pool.Release()
			if !g.pool.TryAcquire() {
				return
			}
		}
		g.pool.Release()
		// A unit queued while this helper held the slot found none
		// free; pick it up now rather than leave it to Wait.
		g.spawn()
	}()
}

// waiting reports whether pop would return a unit.
func (g *Group) waiting() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue) > 0 && g.panic == nil
}

// pop dequeues the oldest unit; nil when none is left or a unit has
// panicked.
func (g *Group) pop() func() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) == 0 || g.panic != nil {
		return nil
	}
	unit := g.queue[0]
	g.queue = g.queue[1:]
	return unit
}

// run executes unit, recording its panic (the first one wins).
func (g *Group) run(unit func()) {
	defer func() {
		if v := recover(); v != nil {
			g.mu.Lock()
			if g.panic == nil {
				g.panic = &Panic{Value: v, Stack: debug.Stack()}
			}
			g.mu.Unlock()
		}
	}()
	unit()
}

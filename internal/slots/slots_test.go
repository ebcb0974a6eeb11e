package slots

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// gauge counts units running at once and remembers the peak.
type gauge struct{ now, peak atomic.Int32 }

func (g *gauge) enter() {
	n := g.now.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// settle waits until the goroutine count is back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Wait (baseline %d)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupFullPoolRunsOnCaller: with every slot held elsewhere, Go
// starts no helper and Wait runs every unit on the caller, one at a
// time — a saturated budget is never oversubscribed.
func TestGroupFullPoolRunsOnCaller(t *testing.T) {
	p := New(2)
	p.TryAcquire()
	p.TryAcquire()
	var g gauge
	var ran atomic.Int32
	grp := NewGroup(p)
	for i := 0; i < 6; i++ {
		grp.Go(func() {
			g.enter()
			defer g.leave()
			time.Sleep(time.Millisecond)
			ran.Add(1)
		})
	}
	grp.Wait()
	if ran.Load() != 6 || g.peak.Load() != 1 {
		t.Fatalf("ran %d units at peak concurrency %d, want 6 at 1", ran.Load(), g.peak.Load())
	}
	if len(p) != 2 {
		t.Fatalf("pool holds %d slots after Wait, want the 2 held elsewhere", len(p))
	}
}

// TestGroupLoneCallerFillsPool: a caller holding one slot of an
// otherwise idle pool (a lone stage) runs pool-size units at once, and
// never more.
func TestGroupLoneCallerFillsPool(t *testing.T) {
	const size = 4
	p := New(size)
	p.TryAcquire() // the caller's own stage slot
	var g gauge
	grp := NewGroup(p)
	for i := 0; i < 3*size; i++ {
		grp.Go(func() {
			g.enter()
			defer g.leave()
			deadline := time.Now().Add(2 * time.Second)
			for g.peak.Load() < size && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
	grp.Wait()
	if got := g.peak.Load(); got != size {
		t.Fatalf("peak concurrency %d, want the pool size %d", got, size)
	}
	if len(p) != 1 {
		t.Fatalf("pool holds %d slots after Wait, want only the caller's", len(p))
	}
}

// TestGroupWaitingStageGetsSlotWithinOneUnit: a stage blocked on a
// plain send (the scheduler's acquire) takes the slot a helper gives
// back after its current unit; the helper does not start another.
func TestGroupWaitingStageGetsSlotWithinOneUnit(t *testing.T) {
	p := New(2)
	p.TryAcquire() // the caller's own stage slot
	var helperUnits atomic.Int32
	first, release := make(chan struct{}), make(chan struct{})
	grp := NewGroup(p)
	grp.Go(func() { // starts on the free slot
		helperUnits.Add(1)
		close(first)
		<-release
	})
	<-first
	for i := 0; i < 5; i++ {
		grp.Go(func() { helperUnits.Add(1); time.Sleep(2 * time.Millisecond) })
	}

	blocked, acquired := make(chan int32), make(chan int32)
	go func() {
		blocked <- helperUnits.Load()
		p <- struct{}{} // a waiting stage
		acquired <- helperUnits.Load()
	}()
	before := <-blocked
	time.Sleep(20 * time.Millisecond) // let the waiter block on the send
	close(release)
	after := <-acquired
	if after-before > 1 {
		t.Fatalf("waiting stage got its slot after %d helper units, want at most 1", after-before)
	}
	grp.Wait() // the caller runs whatever is still queued
	p.Release()
}

// TestGroupLeavesNoGoroutine: Wait returns only after every helper
// exited — on the normal path, when the units see a cancelled context,
// and when a unit panics (Wait re-panics it as a *Panic on the caller,
// dropping the units still queued).
func TestGroupLeavesNoGoroutine(t *testing.T) {
	run := func(unit func(i int)) {
		grp := NewGroup(New(4))
		for i := 0; i < 32; i++ {
			grp.Go(func() { unit(i) })
		}
		grp.Wait()
	}

	t.Run("normal", func(t *testing.T) {
		base := runtime.NumGoroutine()
		var ran atomic.Int32
		run(func(i int) {
			d := 100 * time.Microsecond
			if i == 0 { // on the first helper, outlasting every other unit
				d = 20 * time.Millisecond
			}
			time.Sleep(d)
			ran.Add(1)
		})
		if ran.Load() != 32 {
			t.Fatalf("Wait returned with %d of 32 units run", ran.Load())
		}
		settle(t, base)
	})

	t.Run("cancelled", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		run(func(i int) {
			if i == 8 {
				cancel()
			}
			if ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
		})
		settle(t, base)
	})

	t.Run("panicking", func(t *testing.T) {
		base := runtime.NumGoroutine()
		var ran atomic.Int32
		var got any
		func() {
			defer func() { got = recover() }()
			run(func(i int) {
				ran.Add(1)
				if i == 3 {
					panic("unit exploded")
				}
				time.Sleep(time.Millisecond)
			})
		}()
		up, ok := got.(*Panic)
		if !ok || up.Value != "unit exploded" || len(up.Stack) == 0 {
			t.Fatalf("Wait panicked with %#v, want *Panic carrying the unit's value and stack", got)
		}
		if ran.Load() == 32 {
			t.Error("every queued unit ran after a panic; want the rest dropped")
		}
		settle(t, base)
	})
}

// TestGroupNilPoolRunsInOrderOnCaller: without a budget every unit runs
// on the caller, in Go order.
func TestGroupNilPoolRunsInOrderOnCaller(t *testing.T) {
	var order []int
	grp := NewGroup(nil)
	for i := 0; i < 5; i++ {
		grp.Go(func() { order = append(order, i) })
	}
	if len(order) != 0 {
		t.Fatal("a unit ran before Wait without a budget")
	}
	grp.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want 0..4", order)
		}
	}
}

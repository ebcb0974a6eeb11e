// Package freelist is the free list an engine lends its reusable
// working memory from: the sweep's worker slabs (optimize.Arena) and
// the patterns stage's miners (core.Engine). A value is owned by one
// borrower at a time, and a list holds at most as many values as were
// ever out at once.
package freelist

import "sync"

// List is a mutex-guarded free list. Its zero value is empty and ready.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get lends a value put back earlier, or returns nil when none is free.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	v := l.free[n-1]
	l.free = l.free[:n-1]
	return v
}

// Put returns a value to the list.
func (l *List[T]) Put(v *T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

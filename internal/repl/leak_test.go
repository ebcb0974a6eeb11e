package repl

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestFollowerCloseLeavesNoGoroutine: once Close returns, the sync
// loop and every connection it opened to the leader are gone — the
// goroutine count is back at its baseline from before OpenFollower.
func TestFollowerCloseLeavesNoGoroutine(t *testing.T) {
	leader, srv := newLeader(t, t.TempDir())
	if err := leader.StoreKnowledgeItems(items("ki", 5)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	f, err := OpenFollower(fastFollowerOpts(srv.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	if !waitFor(10*time.Second, func() bool { return converged(f, leader) && f.Lag().Connected }) {
		t.Fatalf("follower never converged: %+v", f.Lag())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines outlive Follower.Close (baseline %d)", runtime.NumGoroutine(), base)
	}
}

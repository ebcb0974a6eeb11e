package repl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adahealth/internal/docstore"
	"adahealth/internal/kdb"
)

// waitFor polls cond until it holds or d elapses, and reports which.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// converged reports whether the follower holds the leader's durable
// position.
func converged(f *Follower, leader *kdb.KDB) bool {
	return f.Replica().Position() == leader.Store().ReplStatus()
}

// TestLeaderShutdownWithFollowerAttached: http.Server.Shutdown waits for
// every response to finish, and a follower's WAL stream never finishes
// on its own. With Leader.Close registered on shutdown the drain ends
// the stream at once, and later WAL requests get a 503.
func TestLeaderShutdownWithFollowerAttached(t *testing.T) {
	leader, err := kdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	l, err := NewLeaderHandler(leader.Store(), fastLeaderOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l)
	srv.Config.RegisterOnShutdown(l.Close)
	defer srv.Close()
	if err := leader.StoreKnowledgeItems(items("ki", 5)); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollower(fastFollowerOpts(srv.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start(context.Background())
	if !waitFor(10*time.Second, func() bool { return converged(f, leader) && f.Lag().Connected }) {
		t.Fatalf("follower never converged with an open stream: %+v", f.Lag())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a follower attached: %v after %v", err, time.Since(t0))
	}
	if d := time.Since(t0); d >= time.Second {
		t.Fatalf("Shutdown took %v with a follower attached, want < 1s", d)
	}
	if !waitFor(time.Second, func() bool { return !f.Lag().Connected }) {
		t.Fatal("follower still reports connected=true after the leader drained")
	}

	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, WALPath+"?epoch=0&from=0", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("WAL request after Close = %d, want 503", rec.Code)
	}
}

// TestFollowerRebootstrapsOnLiveCompaction: the leader compacts while a
// follower's stream is open and idle. With hour-long keepalive and stall
// timers, only the compaction's change signal can end the dead-epoch
// stream, so the follower re-bootstraps at once, then tails the new
// epoch's writes byte for byte.
func TestFollowerRebootstrapsOnLiveCompaction(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, err := kdb.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	l, err := NewLeaderHandler(leader.Store(), LeaderOptions{KeepaliveInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l)
	defer srv.Close()
	defer l.Close()
	if err := leader.StoreKnowledgeItems(items("early", 10)); err != nil {
		t.Fatal(err)
	}

	opts := fastFollowerOpts(srv.URL, followerDir)
	opts.StallTimeout = time.Hour
	f, err := OpenFollower(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start(context.Background())
	if !waitFor(10*time.Second, func() bool { return converged(f, leader) && f.Lag().Connected }) {
		t.Fatalf("follower never converged with an open stream: %+v", f.Lag())
	}

	if err := leader.Store().Compact(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(2*time.Second, func() bool { return f.Lag().Bootstraps == 2 && converged(f, leader) }) {
		t.Fatalf("follower did not re-bootstrap within 2s of a live compaction: %+v, leader %+v",
			f.Lag(), leader.Store().ReplStatus())
	}
	if err := leader.StoreKnowledgeItems(items("post", 10)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(2*time.Second, func() bool { return converged(f, leader) }) {
		t.Fatalf("follower did not converge within 2s: %+v, leader %+v", f.Replica().Position(), leader.Store().ReplStatus())
	}
	assertWALPrefixIdentical(t, leaderDir, followerDir)
	if got := f.Lag().Bootstraps; got != 2 {
		t.Errorf("bootstraps = %d, want 2 (the first sync and the compaction)", got)
	}
}

// TestWALStreamWakesOnEveryCommit: a raw WAL stream with an hour-long
// keepalive is woken only by the change signal, so every commit's bytes
// must reach the client within 1 s. Taking Changed() after Read instead
// of before loses a commit that lands between the two; this test then
// fails in almost every -race run.
func TestWALStreamWakesOnEveryCommit(t *testing.T) {
	s, err := docstore.OpenOptions(docstore.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := NewLeaderHandler(s, LeaderOptions{KeepaliveInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l)
	defer srv.Close()
	defer l.Close()

	resp, err := http.Get(srv.URL + WALPath + "?epoch=0&from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("WAL stream status %d", resp.StatusCode)
	}
	var received atomic.Int64
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()

	// Each round both writers commit at once, so the second commit lands
	// while the stream is handling the first, and then everyone waits:
	// no later commit can rescue a lost wake-up.
	const writers, commits = 2, 300
	c := s.Collection("items")
	for round := 0; round < commits/writers; round++ {
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Insert(docstore.Document{"_id": fmt.Sprintf("doc-%03d-%d", round, w)}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		want := s.ReplStatus().Offset
		deadline := time.Now().Add(time.Second)
		for received.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: stream at byte %d, commits durable at %d after 1s — a lost wake-up",
					round, received.Load(), want)
			}
			runtime.Gosched()
		}
	}
}

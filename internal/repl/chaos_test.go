package repl

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
)

// TestChaosFollowerBackoffUnderLeaderWALFaults: with the leader's WAL
// reads failing (injected), the follower must approach it at the
// capped backoff rate, not spin — asserted via the injector's fired
// count, which increments once per attempted WAL read. After the
// fault heals, the follower converges.
func TestChaosFollowerBackoffUnderLeaderWALFaults(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	inj := faultfs.New(nil, 42)
	leader, err := kdb.OpenStore(docstore.Options{Dir: leaderDir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := leader.StoreKnowledgeItems(items("ki", 10)); err != nil {
		t.Fatal(err)
	}

	// Every replication read of the leader's log fails. Only the
	// WALReader reads wal.log after open (the committer is
	// append-only), so the leader itself stays healthy.
	inj.Inject(faultfs.Rule{Op: faultfs.OpRead, Path: "wal.log"})

	h, err := NewLeaderHandler(leader.Store(), fastLeaderOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	opts := fastFollowerOpts(srv.URL, followerDir)
	opts.MinBackoff = 10 * time.Millisecond
	opts.MaxBackoff = 80 * time.Millisecond
	f, err := OpenFollower(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start(context.Background())

	// Wait for the first faulted read (bootstrap and connect come
	// first, and a loaded machine may take a while), then soak: the
	// bound below is a rate over the time since that first attempt,
	// so a slow scheduler neither fails nor excuses the check.
	for deadline := time.Now().Add(10 * time.Second); inj.Fired() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("injected WAL read fault never fired — the scenario is not exercising the leader's log reads")
		}
	}
	first := time.Now()
	time.Sleep(600 * time.Millisecond)
	fired, soak := inj.Fired(), time.Since(first)
	// Unthrottled, the loop would attempt thousands of reads in the
	// soak window; with 10ms..80ms full-jitter backoff the expected
	// rate is one attempt per ~40 ms. Allow generous slack — one
	// attempt per 10 ms, plus the first — the bound only has to rule
	// out spinning.
	if maxAttempts := 1 + int(soak/(10*time.Millisecond)); fired > maxAttempts {
		t.Fatalf("leader WAL read fault fired %d times in %v — the follower is retrying without backoff (want <= %d)",
			fired, soak, maxAttempts)
	}

	inj.Clear()
	waitConverged(t, f, leader)
	if lag := f.Lag(); lag.FramesBehind != 0 {
		t.Errorf("frames_behind = %d after healing, want 0", lag.FramesBehind)
	}
}

// TestChaosConvergenceSoak: intermittent leader WAL read faults, a
// follower killed and restarted mid-stream, and sustained leader
// writes — the follower must still converge to a byte-identical copy
// of the leader's durable log.
func TestChaosConvergenceSoak(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	inj := faultfs.New(nil, 7)
	leader, err := kdb.OpenStore(docstore.Options{Dir: leaderDir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lh, err := NewLeaderHandler(leader.Store(), fastLeaderOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(lh)
	defer srv.Close()

	// Every third replication read of the leader's log fails, forever.
	inj.Inject(faultfs.Rule{Op: faultfs.OpRead, Path: "wal.log", Prob: 0.33})

	// Sustained leader writes during the whole soak.
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; !stop.Load(); i++ {
			_ = leader.StoreKnowledgeItems([]knowledge.Item{{
				ID: "soak-" + itoa(i), Dataset: "ward-a", Kind: knowledge.KindCluster,
				Metrics: map[string]float64{"size": float64(i)},
			}})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	opts := fastFollowerOpts(srv.URL, followerDir)
	f, err := OpenFollower(opts)
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	time.Sleep(150 * time.Millisecond)
	if err := f.Close(); err != nil { // kill mid-stream
		t.Fatal(err)
	}

	f2, err := OpenFollower(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.Start(context.Background())
	time.Sleep(200 * time.Millisecond)

	// Stop the writers and heal the disk; the follower must drain the
	// backlog and match the leader's durable prefix byte for byte.
	stop.Store(true)
	<-writerDone
	inj.Clear()
	waitConverged(t, f2, leader)
	assertWALPrefixIdentical(t, leaderDir, followerDir)

	fkb := kdb.Follower(f2.Store())
	got, err := fkb.KnowledgeItems("ward-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := leader.KnowledgeItems("ward-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("follower has %d items, leader has %d — lost or duplicated documents", len(got), len(want))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

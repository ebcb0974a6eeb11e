package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
)

// fastLeaderOpts keeps idle streams' keepalives frequent for tests.
func fastLeaderOpts() LeaderOptions {
	return LeaderOptions{KeepaliveInterval: 50 * time.Millisecond}
}

func fastFollowerOpts(url, dir string) FollowerOptions {
	return FollowerOptions{
		LeaderURL:      url,
		Dir:            dir,
		RequestTimeout: 2 * time.Second,
		StallTimeout:   2 * time.Second,
		MinBackoff:     5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	}
}

func newLeader(t *testing.T, dir string) (*kdb.KDB, *httptest.Server) {
	t.Helper()
	k, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k.Close() })
	h, err := NewLeaderHandler(k.Store(), fastLeaderOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return k, srv
}

func items(prefix string, n int) []knowledge.Item {
	out := make([]knowledge.Item, n)
	for i := range out {
		out[i] = knowledge.Item{
			ID:      fmt.Sprintf("%s-%03d", prefix, i),
			Dataset: "ward-a",
			Kind:    knowledge.KindCluster,
			Metrics: map[string]float64{"size": float64(i)},
		}
	}
	return out
}

// waitConverged polls until the follower's position matches the
// leader's durable position (same epoch, same offset).
func waitConverged(t *testing.T, f *Follower, leader *kdb.KDB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		lp := leader.Store().ReplStatus()
		fp := f.Replica().Position()
		if lp.Epoch == fp.Epoch && lp.Offset == fp.Offset && lp.Frames == fp.Frames {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never converged: leader=%+v follower=%+v",
		leader.Store().ReplStatus(), f.Replica().Position())
}

// assertWALPrefixIdentical: the follower's durable log must be
// byte-identical to the leader's durable log (after convergence, the
// whole file).
func assertWALPrefixIdentical(t *testing.T, leaderDir, followerDir string) {
	t.Helper()
	lw, err := os.ReadFile(filepath.Join(leaderDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := os.ReadFile(filepath.Join(followerDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lw, fw) {
		t.Fatalf("follower WAL (%d bytes) is not byte-identical to leader WAL (%d bytes)", len(fw), len(lw))
	}
}

// TestReplicationEndToEnd: a follower bootstraps from a live leader,
// tails its WAL, serves the knowledge read endpoints from the replica,
// and reports healthy lag gauges; the local log is byte-identical to
// the leader's.
func TestReplicationEndToEnd(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, srv := newLeader(t, leaderDir)
	if err := leader.StoreKnowledgeItems(items("ki", 25)); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollower(fastFollowerOpts(srv.URL, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	defer f.Close()
	waitConverged(t, f, leader)

	// Writes committed while the stream is live arrive too.
	if err := leader.StoreKnowledgeItems(items("late", 5)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, leader)
	assertWALPrefixIdentical(t, leaderDir, followerDir)

	fkb := kdb.Follower(f.Store())
	fh := httptest.NewServer(NewFollowerHandler(f, fkb))
	defer fh.Close()

	resp, err := http.Get(fh.URL + "/v1/knowledge?dataset=ward-a&limit=100")
	if err != nil {
		t.Fatal(err)
	}
	var kr struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || kr.Count != 30 {
		t.Fatalf("follower knowledge endpoint: status=%d count=%d, want 200 and 30", resp.StatusCode, kr.Count)
	}

	resp, err = http.Get(fh.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Role string   `json:"role"`
		Mode kdb.Mode `json:"mode"`
		Lag  Lag      `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Role != "follower" || hz.Mode != kdb.ModeFollower {
		t.Errorf("healthz role/mode = %q/%q, want follower/follower", hz.Role, hz.Mode)
	}
	if hz.Lag.FramesBehind != 0 {
		t.Errorf("healthz frames_behind = %d after convergence, want 0", hz.Lag.FramesBehind)
	}
	if hz.Lag.LastAppliedOffset <= 0 {
		t.Errorf("healthz last_applied_offset = %d, want > 0", hz.Lag.LastAppliedOffset)
	}
	if hz.Lag.SecondsSinceContact < 0 || hz.Lag.SecondsSinceContact > 60 {
		t.Errorf("healthz seconds_since_contact = %v, want a recent contact", hz.Lag.SecondsSinceContact)
	}
}

// TestFollowerCatchUpAcrossCompaction: a follower that was offline
// while the leader compacted (epoch bump) detects the stale epoch,
// re-bootstraps from the snapshot, and tails the new WAL — no
// duplicated and no lost documents.
func TestFollowerCatchUpAcrossCompaction(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, srv := newLeader(t, leaderDir)
	if err := leader.StoreKnowledgeItems(items("early", 10)); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollower(fastFollowerOpts(srv.URL, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	waitConverged(t, f, leader)
	if err := f.Close(); err != nil { // follower goes offline
		t.Fatal(err)
	}

	// Leader keeps writing and compacts: epoch 0 is gone.
	if err := leader.StoreKnowledgeItems(items("mid", 10)); err != nil {
		t.Fatal(err)
	}
	if err := leader.Store().Compact(); err != nil {
		t.Fatal(err)
	}
	if err := leader.StoreKnowledgeItems(items("post", 10)); err != nil {
		t.Fatal(err)
	}
	if got := leader.Store().ReplStatus().Epoch; got != 1 {
		t.Fatalf("leader epoch after compaction = %d, want 1", got)
	}

	// The restarted follower resumes from its stale epoch, hits the
	// 409, bootstraps, and tails the post-compaction WAL.
	f2, err := OpenFollower(fastFollowerOpts(srv.URL, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.Start(context.Background())
	waitConverged(t, f2, leader)
	assertWALPrefixIdentical(t, leaderDir, followerDir)

	fkb := kdb.Follower(f2.Store())
	got, err := fkb.KnowledgeItems("ward-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("follower has %d items after catch-up, want 30 (no dup/loss)", len(got))
	}
	seen := map[string]bool{}
	for _, it := range got {
		if seen[it.ID] {
			t.Fatalf("item %s duplicated across the compaction boundary", it.ID)
		}
		seen[it.ID] = true
	}
	if f2.Lag().Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want exactly 1", f2.Lag().Bootstraps)
	}
}

// truncatingProxy forwards to the leader but cuts the first WAL stream
// mid-frame after a fixed byte budget — the wire-level torn frame.
type truncatingProxy struct {
	leaderURL string
	cutAfter  int
	cuts      int
	client    *http.Client
}

func (p *truncatingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := p.client.Get(p.leaderURL + r.URL.RequestURI())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher := w.(http.Flusher)
	limit := -1
	if r.URL.Path == WALPath && p.cuts == 0 && resp.StatusCode == http.StatusOK {
		p.cuts++
		limit = p.cutAfter
	}
	buf := make([]byte, 512)
	written := 0
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if limit >= 0 && written+n > limit {
				chunk = chunk[:limit-written]
			}
			if len(chunk) > 0 {
				if _, werr := w.Write(chunk); werr != nil {
					return
				}
				flusher.Flush()
				written += len(chunk)
			}
			if limit >= 0 && written >= limit {
				return // cut the stream mid-frame
			}
		}
		if err != nil {
			return
		}
	}
}

// TestFollowerResumesAfterMidFrameCut: a WAL stream severed mid-frame
// leaves the follower's durable log at a clean frame boundary; the
// reconnect resumes from it and converges with no duplicate or lost
// documents.
func TestFollowerResumesAfterMidFrameCut(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, srv := newLeader(t, leaderDir)
	if err := leader.StoreKnowledgeItems(items("ki", 40)); err != nil {
		t.Fatal(err)
	}

	// Cut mid-frame: 100 bytes into the stream is inside some frame
	// (each insert frame here is well over 100 bytes of JSON).
	proxy := httptest.NewServer(&truncatingProxy{
		leaderURL: srv.URL, cutAfter: 100, client: &http.Client{},
	})
	defer proxy.Close()

	f, err := OpenFollower(fastFollowerOpts(proxy.URL, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start(context.Background())
	waitConverged(t, f, leader)
	assertWALPrefixIdentical(t, leaderDir, followerDir)

	if f.Lag().Reconnects < 2 {
		t.Errorf("reconnects = %d, want >= 2 (the cut stream plus the resume)", f.Lag().Reconnects)
	}
	fkb := kdb.Follower(f.Store())
	got, err := fkb.KnowledgeItems("ward-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("follower has %d items, want 40", len(got))
	}
}

// TestFollowerKilledMidStreamResumes: hard-stop the follower while the
// leader keeps writing; a new follower over the same directory resumes
// at its durable offset (no re-bootstrap) and converges.
func TestFollowerKilledMidStreamResumes(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, srv := newLeader(t, leaderDir)
	if err := leader.StoreKnowledgeItems(items("a", 15)); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollower(fastFollowerOpts(srv.URL, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	waitConverged(t, f, leader)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := leader.StoreKnowledgeItems(items("b", 15)); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFollower(fastFollowerOpts(srv.URL, followerDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Replica().NeedsBootstrap() {
		t.Fatal("restarted follower lost its durable state (needs bootstrap)")
	}
	f2.Start(context.Background())
	waitConverged(t, f2, leader)
	assertWALPrefixIdentical(t, leaderDir, followerDir)
	if f2.Lag().Bootstraps != 0 {
		t.Errorf("restart re-bootstrapped (%d), want resume from durable offset", f2.Lag().Bootstraps)
	}
}

package kdb

import (
	"errors"
	"testing"

	"adahealth/internal/knowledge"
)

// TestFollowerServesReplicatedReads: a K-DB fronting a replica serves
// the knowledge read paths from shipped WAL frames, refuses every
// mutation and flush with ErrFollower, and never touches the store on
// Close (the replica owns its lifecycle).
func TestFollowerServesReplicatedReads(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	items := []knowledge.Item{
		{ID: "ki-1", Dataset: "ward-a", Kind: knowledge.KindCluster, Metrics: map[string]float64{"size": 12}},
		{ID: "ki-2", Dataset: "ward-a", Kind: knowledge.KindRule, Metrics: map[string]float64{"confidence": 0.9}},
	}
	if err := leader.StoreKnowledgeItems(items); err != nil {
		t.Fatal(err)
	}
	if err := leader.RecordFeedback(Feedback{
		User: "dr", Dataset: "ward-a", ItemID: "ki-1", ItemKind: "cluster", Interest: knowledge.InterestHigh,
	}); err != nil {
		t.Fatal(err)
	}

	rep := replicaOf(t, leader)
	f := Follower(rep.Store())
	if got := f.Health().Mode; got != ModeFollower {
		t.Fatalf("follower health mode = %q, want %q", got, ModeFollower)
	}

	got, err := f.KnowledgeItems("ward-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("follower sees %d knowledge items, want 2", len(got))
	}
	top, err := f.TopKnowledge("ward-a", "size", 1)
	if err != nil || len(top) != 1 || top[0].ID != "ki-1" {
		t.Fatalf("TopKnowledge on follower = %v (err %v), want ki-1", top, err)
	}
	fb, err := f.FeedbackFor("ward-a")
	if err != nil || len(fb) != 1 {
		t.Fatalf("FeedbackFor on follower = %d entries (err %v), want 1", len(fb), err)
	}

	// Every mutation path refuses with ErrFollower, without counting
	// dropped writes (a follower is configured, not degraded).
	if err := f.StoreKnowledgeItems(items); !errors.Is(err, ErrFollower) {
		t.Errorf("StoreKnowledgeItems on follower = %v, want ErrFollower", err)
	}
	if err := f.RecordFeedback(Feedback{Interest: knowledge.InterestLow}); !errors.Is(err, ErrFollower) {
		t.Errorf("RecordFeedback on follower = %v, want ErrFollower", err)
	}
	if err := f.Flush(); !errors.Is(err, ErrFollower) {
		t.Errorf("Flush on follower = %v, want ErrFollower", err)
	}
	if h := f.Health(); h.DroppedWrites != 0 || h.Mode != ModeFollower {
		t.Errorf("follower health after refusals = %+v, want follower mode with zero drops", h)
	}

	// Close must leave the replica's store alive.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := rep.Store().Collection(CollClusterKI).Count(); n != 1 {
		t.Errorf("replica store unusable after follower Close (count=%d)", n)
	}
}

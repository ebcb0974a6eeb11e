package service

import (
	"testing"

	"adahealth/internal/kdb"
)

// TestKDBRecoveryAfterKill is the durability acceptance path: a
// disk-backed service analyzes a dataset, the process "dies" (the
// store is abandoned without Close/compaction, so recovery runs purely
// off the WAL), and a reopened K-DB holds every collection the job and
// an expert's feedback write.
func TestKDBRecoveryAfterKill(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(1)
	cfg.KDBDir = dir
	svc, err := New(Config{Engine: cfg, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	log := testLog(t, 1)
	job, err := svc.Submit(t.Context(), log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	// Record expert feedback so collection 6 holds an entry too.
	items, err := svc.Engine().KDB().KnowledgeItems(log.Name, 0)
	if err != nil || len(items) == 0 {
		t.Fatalf("knowledge items: %v (%d)", err, len(items))
	}
	if err := svc.Engine().KDB().RecordFeedback(kdb.Feedback{
		User: "expert", Dataset: log.Name, ItemID: items[0].ID,
		ItemKind: string(items[0].Kind), Interest: "high",
	}); err != nil {
		t.Fatal(err)
	}

	// Kill: the service and store are simply abandoned — no Close, no
	// compaction. Every acknowledged write is already on the WAL.
	want := svc.Engine().KDB().Counts()

	re, err := kdb.Open(dir)
	if err != nil {
		t.Fatalf("reopening after kill: %v", err)
	}
	got := re.Counts()
	for _, coll := range []string{
		kdb.CollDescriptors, kdb.CollClusterKI, kdb.CollPatternKI, kdb.CollFeedback,
	} {
		if got[coll] == 0 {
			t.Errorf("collection %s empty after recovery", coll)
		}
		if got[coll] != want[coll] {
			t.Errorf("collection %s recovered %d docs, want %d", coll, got[coll], want[coll])
		}
	}
	// The recovered knowledge is queryable and carries the centroid
	// payload future recalls warm-start from.
	recovered, err := re.KnowledgeItems(log.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	haveCentroids := false
	for _, it := range recovered {
		if len(it.Centroids) > 0 {
			haveCentroids = true
		}
	}
	if !haveCentroids {
		t.Error("no centroid payload survived recovery")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	_ = svc.Close()
}

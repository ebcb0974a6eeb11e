package docstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestBatchContract pins the Batch surface on a durable store: writes
// are visible before Commit, Upsert inserts or replaces in place
// (keeping the insertion-order stamp), a refused mutation leaves the
// batch usable, the whole batch is on the log once Commit returns,
// Commit repeats its result, and a committed batch refuses more work.
func TestBatchContract(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.Collection("items")
	c.ShardBy("dataset")
	if _, err := c.Insert(Document{"_id": "first", "dataset": "d1", "v": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(Document{"_id": "second", "dataset": "d1", "v": 2}); err != nil {
		t.Fatal(err)
	}

	b := s.Begin()
	if id, err := b.Upsert(c, Document{"_id": "first", "dataset": "d2", "v": 10}); err != nil || id != "first" {
		t.Fatalf("upsert of an existing id = %q, %v", id, err)
	}
	if id, err := b.Upsert(c, Document{"_id": "third", "dataset": "d1", "v": 3}); err != nil || id != "third" {
		t.Fatalf("upsert of a new id = %q, %v", id, err)
	}
	gen, err := b.Insert(c, Document{"dataset": "d1", "v": 4})
	if err != nil || gen == "" {
		t.Fatalf("insert without id = %q, %v", gen, err)
	}
	if _, err := b.Insert(c, Document{"_id": "second"}); err == nil {
		t.Error("batched insert of a duplicate id accepted")
	}
	if err := b.Update(c, "absent", Document{"v": 0}); err == nil {
		t.Error("batched update of a missing id accepted")
	}
	if err := b.Update(c, "", Document{"v": 0}); err == nil {
		t.Error("batched update of the empty id accepted")
	}
	if err := b.Delete(c, "absent"); err == nil {
		t.Error("batched delete of a missing id accepted")
	}
	if err := b.Delete(c, "second"); err != nil {
		t.Fatalf("delete after refused mutations: %v", err)
	}
	if _, err := b.Insert(newCollection(nil, "foreign"), Document{"v": 0}); err == nil {
		t.Error("mutation of another store's collection accepted")
	}

	// Visible before Commit, in insertion order with the upserted
	// document still first.
	got := c.Find(nil)
	if len(got) != 3 || got[0].ID() != "first" || got[0]["v"] != 10 || got[1].ID() != "third" || got[2].ID() != gen {
		t.Fatalf("contents before Commit = %v", got)
	}
	if moved := c.FindEq("dataset", "d2"); len(moved) != 1 {
		t.Errorf("upsert did not restripe the document: %v", moved)
	}

	if err := b.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// 2 single inserts + 4 batched frames, all on disk at the ack.
	if n := len(frameEnds(t, filepath.Join(dir, "wal.log"))); n != 6 {
		t.Errorf("WAL holds %d frames after Commit, want 6", n)
	}
	if err := b.Commit(); err != nil {
		t.Errorf("second Commit = %v, want the first result", err)
	}
	if _, err := b.Insert(c, Document{"v": 5}); !errors.Is(err, errBatchCommitted) {
		t.Errorf("insert after Commit = %v, want errBatchCommitted", err)
	}
	if err := b.Delete(c, "first"); !errors.Is(err, errBatchCommitted) {
		t.Errorf("delete after Commit = %v, want errBatchCommitted", err)
	}
	// The gate was released exactly once: compaction proceeds.
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact after Commit: %v", err)
	}
}

// TestConcurrentUpsertsOfOneID: racing upserts of the same explicit
// IDs never fail with a duplicate and leave one document per ID — the
// existence check and the write are atomic inside the store.
func TestConcurrentUpsertsOfOneID(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	c.ShardBy("dataset")
	const writers, ids = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := s.Begin()
			defer b.Commit()
			for i := 0; i < ids; i++ {
				// Different shard keys per writer: the same ID moves
				// between stripes under contention.
				doc := Document{"_id": fmt.Sprintf("k%d", i), "dataset": fmt.Sprintf("d%d", w)}
				if _, err := b.Upsert(c, doc); err != nil {
					t.Errorf("writer %d upsert %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Count(); got != ids {
		t.Errorf("%d documents after racing upserts, want %d", got, ids)
	}
}

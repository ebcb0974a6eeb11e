package docstore

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"

	"adahealth/internal/faultfs"
)

func openFaulty(t *testing.T, dir string, ffs faultfs.FS) *Store {
	t.Helper()
	s, err := OpenOptions(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWALWriteFaultPoisonsStore injects a write fault on the WAL and
// checks the poisoning contract end to end: the enqueuer whose batch
// failed gets the error (not nil), every later write fails fast with
// ErrStoreBroken, Flush surfaces the brokenness, Compact refuses, and
// reopening without faults recovers exactly the durable prefix.
func TestWALWriteFaultPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	s := openFaulty(t, dir, ffs)
	c := s.Collection("items")

	if _, err := c.Insert(Document{"_id": "a", "v": 1.0}); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	_, err := c.Insert(Document{"_id": "b", "v": 2.0})
	if err == nil {
		t.Fatal("insert acked nil over a failed WAL commit")
	}
	if !errors.Is(err, ErrStoreBroken) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("failed insert err = %v, want ErrStoreBroken wrapping ENOSPC", err)
	}

	// Heal the disk: the store must stay poisoned regardless — memory
	// is ahead of the log and appending would leave a hole.
	ffs.Clear()
	if _, err := c.Insert(Document{"_id": "c", "v": 3.0}); !errors.Is(err, ErrStoreBroken) {
		t.Fatalf("post-poison insert err = %v, want ErrStoreBroken", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrStoreBroken) {
		t.Fatalf("Flush on broken store = %v, want ErrStoreBroken", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrStoreBroken) {
		t.Fatalf("Compact on broken store = %v, want ErrStoreBroken", err)
	}
	if err := s.Broken(); !errors.Is(err, ErrStoreBroken) {
		t.Fatalf("Broken() = %v", err)
	}
	s.Close()

	// Reopen clean: only the acknowledged insert survives.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2 := s2.Collection("items")
	if _, ok := c2.Get("a"); !ok {
		t.Error("durable insert lost on recovery")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := c2.Get(id); ok {
			t.Errorf("unacknowledged insert %q resurrected on recovery", id)
		}
	}
	if err := s2.Broken(); err != nil {
		t.Fatalf("reopened store broken: %v", err)
	}
	if _, err := c2.Insert(Document{"_id": "d", "v": 4.0}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
}

// TestWALHoleNoLaterAck covers the group-commit hole directly: a batch
// enqueued while the failing batch commits must fail with
// ErrStoreBroken, not be appended past the hole and acked nil.
func TestWALHoleNoLaterAck(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	s := openFaulty(t, dir, ffs)
	defer s.Close()
	c := s.Collection("items")

	// Slow the first WAL write long enough for a second batch to form
	// behind it, then fail it.
	ffs.Inject(faultfs.Rule{Op: faultfs.OpSync, Path: "wal.log", Delay: 50_000_000}) // 50ms
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Count: 1})

	firstErr := make(chan error, 1)
	go func() {
		_, err := c.Insert(Document{"_id": "x", "v": 1.0})
		firstErr <- err
	}()
	// The second insert either joins the failing batch or lands in the
	// next one; both must surface ErrStoreBroken.
	var second error
	for i := 0; i < 8; i++ {
		_, second = c.Insert(Document{"_id": fmt.Sprintf("y%d", i), "v": 2.0})
		if second != nil {
			break
		}
	}
	first := <-firstErr

	if !errors.Is(first, ErrStoreBroken) {
		t.Fatalf("first enqueuer err = %v, want ErrStoreBroken", first)
	}
	if !errors.Is(second, ErrStoreBroken) {
		t.Fatalf("later enqueuer err = %v, want ErrStoreBroken", second)
	}
}

// TestBatchCommitFaultNoLaterAck is the batch variant of the hole
// contract: a write or fsync fault on the group commit carrying a
// batch's frames fails Commit with ErrStoreBroken and poisons the
// store; no later batch is acknowledged even once the disk heals, and
// reopening recovers everything acked before the fault plus at most a
// frame-prefix of the failed batch.
func TestBatchCommitFaultNoLaterAck(t *testing.T) {
	for _, op := range []faultfs.Op{faultfs.OpWrite, faultfs.OpSync} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil, 1)
			s := openFaulty(t, dir, ffs)
			c := s.Collection("items")

			acked := s.Begin()
			for i := 0; i < 3; i++ {
				if _, err := acked.Upsert(c, Document{"_id": fmt.Sprintf("ok%d", i), "v": 1.0}); err != nil {
					t.Fatal(err)
				}
			}
			if err := acked.Commit(); err != nil {
				t.Fatalf("healthy batch: %v", err)
			}

			// Every commit from here on fails.
			ffs.Inject(faultfs.Rule{Op: op, Path: "wal.log", Err: faultfs.ENOSPC()})
			b := s.Begin()
			for i := 0; i < 50; i++ {
				// Applied in memory and enqueued; nothing has touched
				// the disk yet, so nothing can have failed.
				if _, err := b.Upsert(c, Document{"_id": fmt.Sprintf("lost%d", i), "v": 2.0}); err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
			}
			err := b.Commit()
			if !errors.Is(err, ErrStoreBroken) || !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("Commit over a failed group commit = %v, want ErrStoreBroken wrapping ENOSPC", err)
			}
			if err := s.Broken(); !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("Broken() = %v after a failed batch", err)
			}

			ffs.Clear()
			later := s.Begin()
			if _, err := later.Upsert(c, Document{"_id": "later", "v": 3.0}); !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("mutation on a poisoned store = %v, want ErrStoreBroken", err)
			}
			if err := later.Commit(); !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("later batch Commit = %v, want ErrStoreBroken", err)
			}
			if err := s.Compact(); !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("Compact on a poisoned store = %v, want ErrStoreBroken", err)
			}
			s.Close()

			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			items := re.Collection("items")
			for i := 0; i < 3; i++ {
				if _, ok := items.Get(fmt.Sprintf("ok%d", i)); !ok {
					t.Errorf("acked document ok%d lost", i)
				}
			}
			// A failed write leaves nothing behind; a failed fsync may
			// leave written frames, and then only a frame-prefix of the
			// unacked batch.
			extra := items.Count() - 3
			if op == faultfs.OpWrite && extra != 0 {
				t.Errorf("recovered %d documents past the acked 3 after a failed write", extra)
			}
			for i := 0; i < extra; i++ {
				if _, ok := items.Get(fmt.Sprintf("lost%d", i)); !ok {
					t.Errorf("recovered %d unacked documents but not lost%d: not a frame-prefix", extra, i)
				}
			}
		})
	}
}

// TestBatchesRacingCompact runs writers committing batches against a
// compactor: the batch holds the write gate from Begin to Commit, so
// neither side may deadlock, and every document of an acked batch must
// survive a reopen whether it reached the snapshot or the WAL tail.
func TestBatchesRacingCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	c.ShardBy("dataset")

	const writers, batches, perBatch = 4, 12, 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < batches; n++ {
				b := s.Begin()
				for i := 0; i < perBatch; i++ {
					doc := Document{"_id": fmt.Sprintf("w%d-b%d-i%d", w, n, i), "dataset": fmt.Sprintf("d%d", w)}
					if _, err := b.Upsert(c, doc); err != nil {
						t.Errorf("upsert: %v", err)
					}
				}
				if err := b.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compacted

	// No Close: it would compact. Reopen what a kill would leave.
	re, err := Open(copyDirTruncated(t, dir, "wal.log", 1<<40))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Collection("items").Count(), writers*batches*perBatch; got != want {
		t.Errorf("recovered %d documents, want all %d acked", got, want)
	}
	s.Close()
}

// TestTornWALTailRecovery tears a WAL write mid-frame and verifies a
// reopen truncates back to the durable prefix.
func TestTornWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	s := openFaulty(t, dir, ffs)
	c := s.Collection("items")
	if _, err := c.Insert(Document{"_id": "a", "v": 1.0}); err != nil {
		t.Fatal(err)
	}
	// Tear the next WAL append after 5 bytes — a partial frame header
	// plus nothing usable.
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", TornBytes: 5, Count: 1})
	if _, err := c.Insert(Document{"_id": "b", "v": 2.0}); err == nil {
		t.Fatal("torn write acked nil")
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer s2.Close()
	c2 := s2.Collection("items")
	if _, ok := c2.Get("a"); !ok {
		t.Error("durable insert lost")
	}
	if _, ok := c2.Get("b"); ok {
		t.Error("torn insert resurrected")
	}
	// The truncated log must accept appends again.
	if _, err := c2.Insert(Document{"_id": "c", "v": 3.0}); err != nil {
		t.Fatalf("append after tail truncation: %v", err)
	}
}

// TestSnapshotFaultFallsBackToWAL fails compaction at three points
// (tmp write, tmp fsync, rename) and verifies each time that the store
// keeps serving and stays writable, the old snapshot + intact WAL
// still recover everything, and a later healed Compact succeeds.
func TestSnapshotFaultFallsBackToWAL(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		{"tmp-write-enospc", faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()}},
		{"tmp-fsync", faultfs.Rule{Op: faultfs.OpSync, Path: ".json.tmp"}},
		{"rename", faultfs.Rule{Op: faultfs.OpRename, Path: ".json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil, 1)
			s := openFaulty(t, dir, ffs)
			c := s.Collection("items")
			for i := 0; i < 4; i++ {
				if _, err := c.Insert(Document{"_id": fmt.Sprintf("d%d", i), "v": float64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			ffs.Inject(tc.rule)
			if err := s.Compact(); err == nil {
				t.Fatal("compaction succeeded under snapshot fault")
			}
			// Snapshot failure must not poison the store: the WAL is
			// intact, so writes keep working.
			if err := s.Broken(); err != nil {
				t.Fatalf("snapshot fault poisoned the store: %v", err)
			}
			if _, err := c.Insert(Document{"_id": "after", "v": 9.0}); err != nil {
				t.Fatalf("insert after failed compaction: %v", err)
			}
			ffs.Clear()
			if err := s.Compact(); err != nil {
				t.Fatalf("healed compaction: %v", err)
			}
			s.Close()

			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			c2 := s2.Collection("items")
			if got := c2.Count(); got != 5 {
				t.Fatalf("recovered %d docs, want 5", got)
			}
		})
	}
}

// TestSnapshotFaultRecoveryWithoutCompact is the harsher variant: the
// snapshot fault never heals before close, so recovery must come from
// the old snapshot + the intact WAL alone.
func TestSnapshotFaultRecoveryWithoutCompact(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	s := openFaulty(t, dir, ffs)
	c := s.Collection("items")
	if _, err := c.Insert(Document{"_id": "a", "v": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // durable snapshot with "a"
		t.Fatal(err)
	}
	if _, err := c.Insert(Document{"_id": "b", "v": 2.0}); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()})
	if err := s.Close(); err == nil { // Close compacts; compaction fails
		t.Fatal("close compaction succeeded under snapshot fault")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2 := s2.Collection("items")
	for _, id := range []string{"a", "b"} {
		if _, ok := c2.Get(id); !ok {
			t.Errorf("doc %q lost: old snapshot + WAL did not recover it", id)
		}
	}
}

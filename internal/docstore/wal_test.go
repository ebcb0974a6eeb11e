package docstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// dump renders a store's full contents in a canonical form (every
// collection, documents in insertion order) for bit-for-bit state
// comparison.
func dump(t *testing.T, s *Store) string {
	t.Helper()
	out := map[string][]Document{}
	for _, name := range s.CollectionNames() {
		out[name] = s.Collection(name).Find(nil)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// frameEnds parses the WAL framing and returns the byte offset just
// past each complete frame.
func frameEnds(t *testing.T, walPath string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	off := int64(0)
	for off+walFrameHeader <= int64(len(raw)) {
		length := int64(binary.LittleEndian.Uint32(raw[off : off+4]))
		next := off + walFrameHeader + length
		if next > int64(len(raw)) {
			break
		}
		off = next
		ends = append(ends, off)
	}
	return ends
}

// copyDir clones a store directory with the WAL truncated at size.
func copyDirTruncated(t *testing.T, src, walName string, size int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == walName && int64(len(raw)) > size {
			raw = raw[:size]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALCrashRecoveryProperty is the crash-recovery property test:
// for every record boundary, and for truncations landing mid-record,
// reopening the truncated directory recovers exactly the state as of
// the last complete record — bit for bit. Part of the workload runs
// inside a Batch: a cut inside it recovers the frame-prefix before the
// cut (a batch is not atomic), and once Commit has acknowledged it the
// log on disk recovers it whole.
func TestWALCrashRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A mixed workload over two collections: inserts, updates, deletes,
	// explicit and generated IDs. After each mutation, capture the
	// expected state.
	var states []string
	mutate := []func() error{
		func() error { _, err := s.Collection("a").Insert(Document{"dataset": "d1", "n": 1}); return err },
		func() error { _, err := s.Collection("a").Insert(Document{"dataset": "d2", "n": 2}); return err },
		func() error {
			_, err := s.Collection("b").Insert(Document{"_id": "b-custom", "dataset": "d1", "v": "x"})
			return err
		},
		func() error { return s.Collection("b").Update("b-custom", Document{"dataset": "d1", "v": "y"}) },
		func() error { _, err := s.Collection("a").Insert(Document{"dataset": "d1", "n": 3}); return err },
		func() error { return s.Collection("a").Delete("a-00000002") },
		func() error { _, err := s.Collection("a").Insert(Document{"dataset": "d3", "n": 4}); return err },
		func() error { return s.Collection("b").Update("b-custom", Document{"dataset": "d9", "v": "z"}) },
	}
	states = append(states, dump(t, s)) // state 0: empty
	for i, m := range mutate {
		if err := m(); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		states = append(states, dump(t, s))
	}

	// One batch over both collections, one frame per mutation: every
	// kind, an upsert taking each of its two paths, and a shard-key
	// move. In-memory visibility precedes durability, so the state
	// after each mutation is the state its frame must recover.
	a, b := s.Collection("a"), s.Collection("b")
	batch := s.Begin()
	batched := []func() error{
		func() error { _, err := batch.Insert(a, Document{"dataset": "d1", "n": 5}); return err },
		func() error {
			_, err := batch.Upsert(b, Document{"_id": "b-up", "dataset": "d2", "v": "new"})
			return err
		},
		func() error {
			_, err := batch.Upsert(b, Document{"_id": "b-custom", "dataset": "d1", "v": "w"})
			return err
		},
		func() error { return batch.Update(a, "a-00000001", Document{"dataset": "d7", "n": -1}) },
		func() error { return batch.Delete(a, "a-00000003") },
		func() error {
			_, err := batch.Upsert(b, Document{"_id": "b-up", "dataset": "d2", "v": "newer"})
			return err
		},
	}
	for i, m := range batched {
		if err := m(); err != nil {
			t.Fatalf("batched mutation %d: %v", i, err)
		}
		states = append(states, dump(t, s))
	}
	if err := batch.Commit(); err != nil {
		t.Fatalf("batch commit: %v", err)
	}

	walPath := filepath.Join(dir, "wal.log")
	ends := frameEnds(t, walPath)
	if want := len(mutate) + len(batched); len(ends) != want {
		t.Fatalf("WAL holds %d frames once the batch is acked, want %d", len(ends), want)
	}

	// Truncate at every frame boundary, and at several mid-record
	// offsets inside every frame (header-torn and payload-torn).
	check := func(size int64, wantState string, desc string) {
		t.Helper()
		cloneDir := copyDirTruncated(t, dir, "wal.log", size)
		re, err := Open(cloneDir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", desc, err)
		}
		if got := dump(t, re); got != wantState {
			t.Errorf("%s: recovered state\n %s\nwant\n %s", desc, got, wantState)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close: %v", desc, err)
		}
	}
	prevEnd := int64(0)
	for i, end := range ends {
		check(end, states[i+1], fmt.Sprintf("boundary after record %d", i))
		// Torn header (4 bytes into the next frame) and torn payload
		// (frame end minus one byte) both recover the previous state.
		if end-prevEnd > walFrameHeader {
			check(prevEnd+4, states[i], fmt.Sprintf("torn header of record %d", i))
			check(end-1, states[i], fmt.Sprintf("torn payload of record %d", i))
		}
		prevEnd = end
	}

	// A corrupted (bit-flipped) final payload also rolls back to the
	// previous record.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cloneDir := copyDirTruncated(t, dir, "wal.log", int64(len(raw)))
	corrupt := filepath.Join(cloneDir, "wal.log")
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cloneDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, re); got != states[len(states)-2] {
		t.Errorf("bit-flipped tail: recovered %s\nwant %s", got, states[len(states)-2])
	}
	re.Close()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionThenRecovery checks the snapshot + WAL-tail composition:
// state written before a compaction comes back from the snapshot, the
// post-compaction tail from the WAL, and a reopened store matches the
// original bit for bit.
func TestCompactionThenRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("knowledge")
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(Document{"dataset": fmt.Sprintf("d%d", i%3), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size after compaction = %d, want 0", got)
	}
	// Post-snapshot tail.
	if _, err := c.Insert(Document{"dataset": "d9", "n": 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("knowledge-00000001"); err != nil {
		t.Fatal(err)
	}
	want := dump(t, s)

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, re); got != want {
		t.Errorf("recovered state != original\n got %s\nwant %s", got, want)
	}
	// Generated IDs must not collide with recovered state.
	id, err := re.Collection("knowledge").Insert(Document{"n": -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Collection("knowledge").Get(id); !ok {
		t.Fatal("insert after recovery invisible")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestFlushCompactsBeyondBudget checks the WAL-budget trigger.
func TestFlushCompactsBeyondBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(Options{Dir: dir, MaxWALBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("k")
	for i := 0; i < 16; i++ {
		if _, err := c.Insert(Document{"dataset": "d", "n": i, "pad": "xxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatal(err)
		}
	}
	if s.WALSize() <= 256 {
		t.Fatalf("test premise broken: WAL only %d bytes", s.WALSize())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != 0 {
		t.Errorf("Flush did not compact: WAL %d bytes", got)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Collection("k").Count(); got != 16 {
		t.Errorf("recovered %d docs, want 16", got)
	}
	re.Close()
	s.Close()
}

// TestShardByGroupsAndFinds checks dataset striping: FindEq on the
// shard field stays correct (and single-stripe), cross-shard Get /
// Update / Delete resolve IDs wherever they live, and an update that
// changes the shard key moves the document.
func TestShardByGroupsAndFinds(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	c.ShardBy("dataset")
	c.CreateIndex("dataset")
	var ids []string
	for i := 0; i < 64; i++ {
		id, err := c.Insert(Document{"dataset": fmt.Sprintf("d%d", i%8), "n": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for d := 0; d < 8; d++ {
		got := c.FindEq("dataset", fmt.Sprintf("d%d", d))
		if len(got) != 8 {
			t.Fatalf("dataset d%d: %d docs, want 8", d, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1]["n"].(int) > got[i]["n"].(int) {
				t.Fatalf("dataset d%d results out of insertion order", d)
			}
		}
	}
	// Cross-shard ID ops.
	if _, ok := c.Get(ids[13]); !ok {
		t.Fatal("Get by ID failed under dataset striping")
	}
	// Shard-key change moves the document.
	if err := c.Update(ids[13], Document{"dataset": "moved", "n": 13}); err != nil {
		t.Fatal(err)
	}
	if got := c.FindEq("dataset", "moved"); len(got) != 1 || got[0].ID() != ids[13] {
		t.Fatalf("moved doc not findable under new shard key: %v", got)
	}
	if got := c.FindEq("dataset", "d5"); len(got) != 7 {
		t.Fatalf("old shard key still matches moved doc: %d, want 7", len(got))
	}
	if err := c.Delete(ids[13]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(ids[13]); ok {
		t.Fatal("deleted doc still visible")
	}
	// Duplicate explicit IDs are rejected across stripes.
	if _, err := c.Insert(Document{"_id": ids[20], "dataset": "other"}); err == nil {
		t.Fatal("duplicate _id accepted across shard keys")
	}
}

// TestConcurrentExplicitIDInsertRejected: two racing inserts of the
// same explicit _id under different shard-key values must resolve to
// exactly one winner (the duplicate check is atomic across stripes).
func TestConcurrentExplicitIDInsertRejected(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	c.ShardBy("dataset")
	for round := 0; round < 200; round++ {
		id := fmt.Sprintf("race-%d", round)
		results := make(chan error, 2)
		for _, ds := range []string{"alpha", "beta"} {
			go func(ds string) {
				_, err := c.Insert(Document{"_id": id, "dataset": ds})
				results <- err
			}(ds)
		}
		errs := 0
		for i := 0; i < 2; i++ {
			if <-results != nil {
				errs++
			}
		}
		if errs != 1 {
			t.Fatalf("round %d: %d of 2 racing inserts failed, want exactly 1", round, errs)
		}
		live := c.Find(Eq("_id", id))
		if len(live) != 1 {
			t.Fatalf("round %d: %d live documents with _id %q, want 1", round, len(live), id)
		}
	}
}

// TestConcurrentReadersWritersDurable exercises the full engine under
// the race detector: striped writers, concurrent readers, a flusher,
// and an end-state recovery check.
func TestConcurrentReadersWritersDurable(t *testing.T) {
	dir := t.TempDir()
	// NoSync keeps the test fast; durability of the acknowledged state
	// is covered by the property test above.
	s, err := OpenOptions(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	c.ShardBy("dataset")
	c.CreateIndex("dataset")

	const writers, perWriter, readers = 8, 40, 4
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			ds := fmt.Sprintf("d%d", w)
			for i := 0; i < perWriter; i++ {
				id, err := c.Insert(Document{"dataset": ds, "i": i})
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%5 == 0 {
					if err := c.Update(id, Document{"dataset": ds, "i": i, "touched": true}); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
				if i%11 == 0 {
					if err := c.Delete(id); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.FindEq("dataset", fmt.Sprintf("d%d", r%writers))
				c.Find(Gt("i", 20))
				c.Count()
				c.FindSorted(nil, "i", Desc, 5)
			}
		}(r)
	}
	// A concurrent flusher models the service's per-job flush.
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		for i := 0; i < 10; i++ {
			if err := s.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()

	writeWG.Wait()
	close(stop)
	readWG.Wait()

	want := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, re); !reflect.DeepEqual(got, want) {
		t.Error("recovered state differs from final in-memory state")
	}
	re.Close()
}

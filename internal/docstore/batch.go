package docstore

import (
	"errors"
	"fmt"
)

// Batch is a group of mutations that share one durability wait (see
// the package comment's "Batches" section for the contract). It is the
// store's only write path: Collection.Insert, Update and Delete are
// one-element batches.
//
// A Batch belongs to one goroutine. It holds the store's write gate
// from Begin to Commit, so every Begin must be paired with a Commit
// (defer it), and nothing that takes the gate again — a second Begin,
// a single-document Collection write, Compact, Flush, Close — may run
// on the same goroutine in between: a compaction queued between the
// two acquisitions would deadlock both.
type Batch struct {
	s *Store
	// last is the group commit carrying the batch's newest frame. The
	// one committer finishes commits in log order and fails every
	// commit after a failed one with the same latched error, so
	// waiting for the last waits for all and sees the first failure.
	last *walBatch
	// err latches the first failure to enqueue a frame (WAL closed or
	// already failed); Commit reports it even when the caller ignored
	// the mutation's own return.
	err       error
	committed bool
}

var errBatchCommitted = errors.New("docstore: batch already committed")

// Begin opens a write batch. Mutations applied through it become
// visible immediately and durable together when Commit returns nil.
func (s *Store) Begin() *Batch {
	s.writeGate.RLock()
	return &Batch{s: s}
}

// Commit waits until every frame the batch enqueued is durably logged
// (written, and fsynced unless NoSync) and releases the write gate. It
// returns the first error that kept a frame from becoming durable;
// that error wraps ErrStoreBroken and the store is then latched
// read-only exactly as for a failed Insert. On a memory-only store
// there is nothing to wait for. Calling Commit again returns the same
// result, so a deferred Commit can back an explicit one.
func (b *Batch) Commit() error {
	if b.committed {
		return b.err
	}
	b.committed = true
	defer b.s.writeGate.RUnlock()
	if b.last != nil {
		b.s.wal.kick()
		<-b.last.done
		if b.err == nil {
			b.err = b.last.err
		}
	}
	return b.err
}

// finish commits the one-element batch behind a single-document
// write, preferring the mutation's own error to the commit's.
func (b *Batch) finish(err error) error {
	if cerr := b.Commit(); err == nil {
		err = cerr
	}
	return err
}

// log enqueues the WAL frame of a mutation the caller has just applied
// under a shard lock (which is what orders frames touching one
// document) and remembers the group commit that will carry it.
func (b *Batch) log(rec walRecord) error {
	if b.s.wal == nil {
		return nil
	}
	wb, err := b.s.wal.enqueue(rec)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return err
	}
	b.last = wb
	return nil
}

func (b *Batch) check(c *Collection) error {
	if b.committed {
		return errBatchCommitted
	}
	if c.store != b.s {
		return fmt.Errorf("docstore: collection %s belongs to another store", c.name)
	}
	return nil
}

// putMode says what put requires of the document's current existence.
type putMode int

const (
	putInsert putMode = iota // the _id must be new
	putUpdate                // the _id must exist
	putUpsert                // either
)

// Insert stores a copy of doc in c and returns its ID, generating one
// when the document has none. Inserting an existing ID fails and
// leaves the batch usable.
func (b *Batch) Insert(c *Collection, doc Document) (string, error) {
	return b.put(c, copyDoc(doc), putInsert)
}

// Update replaces the document with the given ID (the _id field of the
// replacement is forced to id); a missing ID fails and leaves the
// batch usable. A replacement whose shard-key value differs moves the
// document to its new stripe; lock-free readers (Get/Find) may
// transiently miss a document mid-move, which is the one
// linearizability caveat of the striped layout.
func (b *Batch) Update(c *Collection, id string, doc Document) error {
	cp := copyDoc(doc)
	cp["_id"] = id
	_, err := b.put(c, cp, putUpdate)
	return err
}

// Upsert stores a copy of doc under its _id, replacing the current
// document when one exists (keeping its insertion-order stamp) and
// inserting otherwise. The existence check and the write are one
// atomic step, so concurrent upserts of one ID never fail with a
// duplicate. A document without an _id is inserted under a generated
// one. It returns the ID.
func (b *Batch) Upsert(c *Collection, doc Document) (string, error) {
	return b.put(c, copyDoc(doc), putUpsert)
}

// put applies one insert, update or upsert of cp (already a private
// copy) in memory and enqueues its frame.
func (b *Batch) put(c *Collection, cp Document, mode putMode) (string, error) {
	if err := b.check(c); err != nil {
		return "", err
	}
	id := cp.ID()
	// An update never generates: its empty ID is looked up, and missed,
	// like any other.
	generated := id == "" && mode != putUpdate
	if generated {
		id = fmt.Sprintf("%s-%08d", c.name, c.idSeq.Add(1))
		cp["_id"] = id
	}

	// An explicit ID can already live in any stripe (documents stripe
	// by shard-key value), so its existence check scans them all;
	// explicitMu makes scan-then-write atomic against concurrent
	// explicit-ID inserts, cross-stripe moves and deletes. It is
	// released once the document is visible in its shard — before the
	// durability wait — so explicit writes still share group commits.
	// Generated IDs are unique by construction and skip the scan.
	var src *shard
	if !generated {
		c.explicitMu.Lock()
		defer c.explicitMu.Unlock()
		var exists bool
		src, exists = c.findShard(id)
		if exists && mode == putInsert {
			return "", fmt.Errorf("docstore: duplicate _id %q in collection %s", id, c.name)
		}
		if !exists && mode == putUpdate {
			return "", fmt.Errorf("docstore: update of missing _id %q in %s", id, c.name)
		}
	}

	dst := c.shards[c.shardIndex(cp)]
	rec := walRecord{Collection: c.name, ID: id, Doc: cp}
	if src != nil {
		lockPair(src, dst)
		defer unlockPair(src, dst)
		old := src.docs[id]
		src.unindexEntry(old.doc)
		delete(src.docs, id)
		rec.Op, rec.Order = opUpdate, old.order
	} else {
		dst.mu.Lock()
		defer dst.mu.Unlock()
		if _, exists := dst.docs[id]; exists {
			return "", fmt.Errorf("docstore: duplicate _id %q in collection %s", id, c.name)
		}
		rec.Op, rec.Order, rec.IDSeq = opInsert, c.orderSeq.Add(1), c.idSeq.Load()
	}
	dst.docs[id] = &entry{doc: cp, order: rec.Order}
	dst.indexEntry(cp)
	if err := b.log(rec); err != nil {
		return "", err
	}
	return id, nil
}

// Delete removes the document with the given ID from c; a missing ID
// fails and leaves the batch usable.
func (b *Batch) Delete(c *Collection, id string) error {
	if err := b.check(c); err != nil {
		return err
	}
	// Same scan-atomicity protocol as put: the find must not race a
	// cross-stripe move.
	c.explicitMu.Lock()
	defer c.explicitMu.Unlock()
	sh, ok := c.findShard(id)
	if !ok {
		return fmt.Errorf("docstore: delete of missing _id %q in %s", id, c.name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.docs[id]
	sh.unindexEntry(old.doc)
	delete(sh.docs, id)
	return b.log(walRecord{Op: opDelete, Collection: c.name, ID: id})
}

package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// Batch is a group of mutations that share one durability wait (see
// the package comment's "Batches" section), and the store's only write
// path. A written document is JSON bytes (Raw or []byte), copied as
// they are, or any other value, marshalled once (see encode).
//
// A Batch belongs to one goroutine. It holds the store's write gate
// from Begin to Commit, so every Begin must be paired with a Commit
// (defer it), and nothing that takes the gate again — a second Begin,
// a single-document Collection write, Compact, Flush, Close — may run
// on the same goroutine in between: a compaction queued between the
// two acquisitions would deadlock both.
type Batch struct {
	s *Store
	// last numbers the batch's newest frame (0 = none): writes carry
	// frames in log order and none is written after a failure, so
	// committing the last commits all.
	last int64
	// err latches the first failure to enqueue a frame; Commit reports
	// it even when the caller ignored the mutation's own return.
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

// Commit returns once every frame the batch enqueued is durably logged
// (written, and fsynced unless NoSync) and releases the write gate:
// unless an earlier writer's write carried them, Commit writes them
// itself, with every frame queued behind them. It returns the first
// error that kept a frame from becoming durable; that error wraps
// ErrStoreBroken and the store is then latched read-only exactly as
// for a failed Insert. On a memory-only store there is nothing to
// wait for. Calling Commit again returns the same result, so a
// deferred Commit can back an explicit one.
func (b *Batch) Commit() error {
	if b.committed {
		return b.err
	}
	b.committed = true
	defer b.s.writeGate.RUnlock()
	if b.last != 0 {
		if err := b.s.wal.commit(b.last); b.err == nil {
			b.err = err
		}
	}
	return b.err
}

// log enqueues the WAL frame of a mutation the caller has just applied
// under the collection lock (which is what orders frames touching one
// document) and remembers its number for Commit.
func (b *Batch) log(rec walRecord) error {
	if b.s.wal == nil {
		return nil
	}
	n, err := b.s.wal.enqueue(rec)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return err
	}
	b.last = n
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
	putUpsert                // either
)

// Upsert stores doc under its _id, replacing the current document when
// one exists (keeping its insertion-order stamp) and inserting
// otherwise. The existence check and the write are one atomic step, so
// concurrent upserts of one ID never fail with a duplicate. A document
// without an _id is inserted under a generated one. It returns the ID.
func (b *Batch) Upsert(c *Collection, doc any) (string, error) {
	return b.put(c, doc, putUpsert)
}

// put applies one insert or upsert of doc in memory and enqueues its
// frame. Encoding comes first; the parse, the existence check, the
// write and the enqueue are one step under the collection lock; the
// durability wait comes after, so writers still share group commits.
// Inserting an existing ID fails and leaves the batch usable.
func (b *Batch) put(c *Collection, doc any, mode putMode) (string, error) {
	if err := b.check(c); err != nil {
		return "", err
	}
	raw, err := encode(doc)
	if err != nil {
		return "", fmt.Errorf("docstore: encoding document for %s: %w", c.name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, e := c.parse(raw)
	generated := id == ""
	if generated {
		c.idSeq++
		id = fmt.Sprintf("%s-%08d", c.name, c.idSeq)
	}
	old, exists := c.docs[id]
	if exists && (mode == putInsert || generated) {
		return "", fmt.Errorf("docstore: duplicate _id %q in collection %s", id, c.name)
	}
	if generated {
		var m member
		e.Raw, m = withID(raw, id)
		e.members = append(e.members, m)
		if i := slices.Index(c.fields, "_id"); i >= 0 {
			e.keys[i] = id
		}
	}

	rec := walRecord{Collection: c.name, ID: id, Doc: json.RawMessage(e.Raw)}
	if exists {
		rec.Op, rec.Order = opUpdate, old.order
	} else {
		c.orderSeq++
		rec.Op, rec.Order, rec.IDSeq = opInsert, c.orderSeq, c.idSeq
	}
	e.order = rec.Order
	c.bind(id, e)
	if err := b.log(rec); err != nil {
		return "", err
	}
	return id, nil
}

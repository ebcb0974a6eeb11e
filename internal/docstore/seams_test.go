package docstore

import "fmt"

// The reads, the batched insert, the delete and the latches below are
// what the tests check the store with; production reads through Scan,
// WalkEq and FindEq and writes through Insert and Upsert.

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Get returns the stored document with the given ID.
func (c *Collection) Get(id string) (Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.docs[id]
	return e.Doc, ok
}

// Find returns every document decoded, in insertion order.
func (c *Collection) Find() []Document {
	c.mu.RLock()
	entries := c.entriesLocked()
	c.mu.RUnlock()
	sortByOrder(entries)
	return decoded(entries)
}

// Insert stores doc in c and returns its ID, generating one when the
// document has none. Inserting an existing ID fails and leaves the
// batch usable.
func (b *Batch) Insert(c *Collection, doc any) (string, error) {
	return b.put(c, doc, putInsert)
}

// del removes the document with the given ID from c and logs the
// "del" frame an older store's live-append fold wrote, so replay and
// replication keep a test for the frame they still apply; a missing ID
// fails and leaves the batch usable.
func (b *Batch) del(c *Collection, id string) error {
	if err := b.check(c); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.docs[id]
	if !ok {
		return fmt.Errorf("docstore: delete of missing _id %q in %s", id, c.name)
	}
	c.unindex(id, old)
	delete(c.docs, id)
	return b.log(walRecord{Op: opDelete, Collection: c.name, ID: id})
}

// deleteDoc is a one-element batch of del.
func deleteDoc(c *Collection, id string) error {
	b := c.store.Begin()
	err := b.del(c, id)
	if cerr := b.Commit(); err == nil {
		err = cerr
	}
	return err
}

// Broken returns the latched WAL commit failure poisoning the store
// (always wrapping ErrStoreBroken), or nil while the store is healthy.
func (s *Store) Broken() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.failed()
}

// Epoch returns the store's current compaction epoch.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

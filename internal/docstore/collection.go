package docstore

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// entry is one stored document plus its insertion-order stamp.
type entry struct {
	doc   Document
	order int64
}

// Collection is one named set of documents under one lock.
// All methods are safe for concurrent use.
type Collection struct {
	store *Store
	name  string

	// mu guards the documents, their indexes and both counters. A
	// write holds it for its in-memory apply and the enqueue of its
	// frame, which is what orders the frames touching one document.
	mu       sync.RWMutex
	docs     map[string]*entry
	indexes  map[string]map[any][]string // field → value → ids; a field is indexed when present
	idSeq    int64                       // generated-ID counter
	orderSeq int64                       // newest insertion-order stamp
}

func newCollection(store *Store, name string) *Collection {
	return &Collection{
		store:   store,
		name:    name,
		docs:    map[string]*entry{},
		indexes: map[string]map[any][]string{},
	}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert stores a copy of doc and returns its ID, generating one when
// the document has none. Inserting an existing ID fails. On a
// disk-backed store, Insert returns once the write is durably logged;
// if the log commit itself fails, the error is returned, the
// in-memory apply stays visible, and the store latches read-only
// (further writes and compaction refuse) so the unlogged state can
// never become durable — reopen to recover the last good commit.
func (c *Collection) Insert(doc Document) (string, error) {
	b := c.store.Begin()
	id, err := b.Insert(c, doc)
	if err = b.finish(err); err != nil {
		return "", err
	}
	return id, nil
}

// Get returns a copy of the document with the given ID.
func (c *Collection) Get(id string) (Document, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.docs[id]
	if !ok {
		return nil, false
	}
	return copyDoc(e.doc), true
}

// Update replaces the document with the given ID (see Batch.Update)
// and returns once the write is durably logged.
func (c *Collection) Update(id string, doc Document) error {
	b := c.store.Begin()
	return b.finish(b.Update(c, id, doc))
}

// Delete removes the document with the given ID and returns once the
// removal is durably logged.
func (c *Collection) Delete(id string) error {
	b := c.store.Begin()
	return b.finish(b.Delete(c, id))
}

// apply folds one logged record into the collection: WAL replay and a
// replica's shipped frames both come here. Insert and update upsert (a
// record already folded into a snapshot, or re-shipped after a
// reconnect, is then a no-op), keeping the current stamp when the
// record carries none; delete ignores a missing document.
func (c *Collection) apply(rec walRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch rec.Op {
	case opInsert, opUpdate:
		order := rec.Order
		if old, ok := c.docs[rec.ID]; ok {
			c.unindex(rec.ID, old.doc)
			if order == 0 {
				order = old.order
			}
		}
		c.docs[rec.ID] = &entry{doc: rec.Doc, order: order}
		c.index(rec.ID, rec.Doc)
		c.idSeq = max(c.idSeq, rec.IDSeq)
		c.orderSeq = max(c.orderSeq, order)
	case opDelete:
		if old, ok := c.docs[rec.ID]; ok {
			c.unindex(rec.ID, old.doc)
			delete(c.docs, rec.ID)
		}
	default:
		return fmt.Errorf("docstore: unknown WAL op %q", rec.Op)
	}
	return nil
}

// load replaces the collection's contents with a decoded snapshot and
// rebuilds its indexes. Opening a store and a replica's re-bootstrap
// both come here; the latter reloads in place, so the *Collection
// handles a K-DB above the store holds stay valid.
func (c *Collection) load(snap snapshotFile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = make(map[string]*entry, len(snap.Docs))
	c.idSeq, c.orderSeq = snap.IDSeq, snap.OrderSeq
	for i, d := range snap.Docs {
		order := int64(i + 1)
		if i < len(snap.Orders) {
			order = snap.Orders[i]
		}
		c.docs[d.ID()] = &entry{doc: d, order: order}
		c.orderSeq = max(c.orderSeq, order)
	}
	for field := range c.indexes {
		c.buildIndex(field)
	}
}

// snapshot captures the collection as its snapshot file, documents in
// insertion order.
func (c *Collection) snapshot() snapshotFile {
	c.mu.RLock()
	snap := snapshotFile{IDSeq: c.idSeq, OrderSeq: c.orderSeq}
	entries := make([]entry, 0, len(c.docs))
	for _, e := range c.docs {
		entries = append(entries, *e)
	}
	c.mu.RUnlock()
	sortByOrder(entries)
	snap.Docs = make([]Document, len(entries))
	snap.Orders = make([]int64, len(entries))
	for i, e := range entries {
		snap.Docs[i], snap.Orders[i] = e.doc, e.order
	}
	return snap
}

// Count reports the number of documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Scan streams every live document through fn without copying, in
// unspecified order, stopping early when fn returns false; order is the
// document's insertion-order stamp (sorting on it recovers Find's
// order). fn runs under the collection's read lock and receives the
// store's internal document: it must treat it as strictly read-only
// and must not call back into the collection (deadlock). The store
// never mutates a stored document in place — every write binds a
// fresh copy — so fn may keep the document after the call, read-only,
// as a snapshot of that version. It is the zero-allocation read path
// for whole-collection aggregation (e.g. the K-DB's
// descriptor-similarity scoring).
func (c *Collection) Scan(fn func(doc Document, order int64) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, e := range c.docs {
		if !fn(e.doc, e.order) {
			return
		}
	}
}

// collect gathers the entries match accepts (nil accepts every one)
// in insertion order, without copying their documents.
func (c *Collection) collect(match func(Document) bool) []entry {
	var out []entry
	c.mu.RLock()
	for _, e := range c.docs {
		if match == nil || match(e.doc) {
			out = append(out, *e)
		}
	}
	c.mu.RUnlock()
	sortByOrder(out)
	return out
}

func sortByOrder(entries []entry) {
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.order, b.order) })
}

// copies deep-copies the entries' documents, in order (nil when none).
func copies(entries []entry) []Document {
	if len(entries) == 0 {
		return nil
	}
	out := make([]Document, len(entries))
	for i := range entries {
		out[i] = copyDoc(entries[i].doc)
	}
	return out
}

// Find returns copies of every document, in insertion order.
func (c *Collection) Find() []Document {
	return copies(c.collect(nil))
}

// CreateIndex builds (or rebuilds) an equality index on field;
// FindEq then answers from the index. Only scalar values (strings,
// numbers, booleans) are indexed: a document whose field holds an
// object, an array or null matches no equality lookup.
func (c *Collection) CreateIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buildIndex(field)
}

// buildIndex (re)builds the index on field from the documents (caller
// holds the write lock).
func (c *Collection) buildIndex(field string) {
	idx := map[any][]string{}
	for id, e := range c.docs {
		if key, ok := normalize(e.doc[field]); ok {
			idx[key] = append(idx[key], id)
		}
	}
	c.indexes[field] = idx
}

// WalkEq calls fn on every document whose field equals value, in
// insertion order, stopping early when fn returns false. It is Scan's
// zero-copy read under Scan's contract — fn receives the store's own
// document, strictly read-only, which it may keep as a snapshot — but
// ordered, and answered from the index when the field is indexed (a
// scan otherwise). fn runs after the collection's read lock is
// released, so it may read the collection.
func (c *Collection) WalkEq(field string, value any, fn func(doc Document, order int64) bool) {
	for _, e := range c.eqEntries(field, value) {
		if !fn(e.doc, e.order) {
			return
		}
	}
}

// FindEq returns copies of the documents whose field equals value, in
// insertion order: WalkEq plus one copyDoc per match.
func (c *Collection) FindEq(field string, value any) []Document {
	return copies(c.eqEntries(field, value))
}

// eqEntries is the one lookup behind WalkEq and FindEq: the entries
// whose field equals value, uncopied, in insertion order.
func (c *Collection) eqEntries(field string, value any) []entry {
	key, ok := normalize(value)
	if !ok {
		return nil
	}
	var out []entry
	c.mu.RLock()
	if idx, indexed := c.indexes[field]; indexed {
		out = make([]entry, 0, len(idx[key]))
		for _, id := range idx[key] {
			out = append(out, *c.docs[id])
		}
	} else {
		for _, e := range c.docs {
			if v, ok := normalize(e.doc[field]); ok && v == key {
				out = append(out, *e)
			}
		}
	}
	c.mu.RUnlock()
	sortByOrder(out)
	return out
}

// index adds the document stored under id to every index (caller holds
// the write lock).
func (c *Collection) index(id string, d Document) {
	for field, idx := range c.indexes {
		if key, ok := normalize(d[field]); ok {
			idx[key] = append(idx[key], id)
		}
	}
}

// unindex removes the document stored under id from every index
// (caller holds the write lock).
func (c *Collection) unindex(id string, d Document) {
	for field, idx := range c.indexes {
		key, ok := normalize(d[field])
		if !ok {
			continue
		}
		idx[key] = slices.DeleteFunc(idx[key], func(x string) bool { return x == id })
	}
}

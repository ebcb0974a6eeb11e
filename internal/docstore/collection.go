package docstore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
)

// entry is one stored document: its bytes and member offsets, the
// scalar key of each indexed field (aligned with Collection.fields, nil
// where the field holds none) and its insertion-order stamp.
type entry struct {
	Doc
	keys  []any
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
	docs     map[string]entry
	fields   []string           // the indexed fields
	indexes  []map[any][]string // per indexed field: key → ids
	reads    []string           // what parse reads: the indexed fields, then _id
	idSeq    int64              // generated-ID counter
	orderSeq int64              // newest insertion-order stamp
}

func newCollection(store *Store, name string) *Collection {
	return &Collection{store: store, name: name, docs: map[string]entry{}, reads: []string{"_id"}}
}

// Insert stores doc under its _id, or a generated one when it has
// none, and returns the ID once the write is durably logged; an _id
// already stored fails. If the log commit fails, the apply stays
// visible and the store latches broken (see ErrStoreBroken).
func (c *Collection) Insert(doc any) (string, error) { return c.put(doc, putInsert) }

// Upsert stores doc under its _id (see Batch.Upsert) and returns the
// ID once the write is durably logged.
func (c *Collection) Upsert(doc any) (string, error) { return c.put(doc, putUpsert) }

// put is a one-element batch of Batch.put, preferring the mutation's
// own error to the commit's.
func (c *Collection) put(doc any, mode putMode) (string, error) {
	b := c.store.Begin()
	id, err := b.put(c, doc, mode)
	if cerr := b.Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return id, nil
}

// parse reads the _id and index keys of doc, a document (caller holds
// the lock).
func (c *Collection) parse(doc Raw) (id string, e entry) {
	var buf [16]member
	ms := buf[:0]
	members(doc, func(k, _, v, _ int) bool {
		ms = append(ms, member{int32(k), int32(v)})
		return true
	})
	slices.Reverse(ms)
	e = entry{Doc: Doc{doc, slices.Clone(ms)}, keys: make([]any, len(c.fields))}
	vals := make([]Raw, len(c.reads))
	e.Fields(vals, c.reads...)
	for i := range e.keys {
		e.keys[i], _ = vals[i].Scalar()
	}
	v, _ := vals[len(c.fields)].Scalar()
	id, _ = v.(string)
	return id, e
}

// bind stores e under id in place of any current document (caller
// holds the write lock).
func (c *Collection) bind(id string, e entry) {
	if old, ok := c.docs[id]; ok {
		c.unindex(id, old)
	}
	c.docs[id] = e
	for i, idx := range c.indexes {
		if key := e.keys[i]; key != nil {
			idx[key] = append(idx[key], id)
		}
	}
}

// unindex removes the document stored under id from every index
// (caller holds the write lock).
func (c *Collection) unindex(id string, e entry) {
	for i, idx := range c.indexes {
		if key := e.keys[i]; key != nil {
			idx[key] = slices.DeleteFunc(idx[key], func(x string) bool { return x == id })
		}
	}
}

// apply folds one logged record into the collection: WAL replay and a
// replica's shipped frames both come here. Insert and update upsert (a
// record already folded into a snapshot, or re-shipped after a
// reconnect, is then a no-op), keeping the current stamp when the
// record carries none. Delete, a frame only older stores hold (their
// live-append fold wrote it), ignores a missing document.
func (c *Collection) apply(rec walRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch rec.Op {
	case opInsert, opUpdate:
		_, e := c.parse(Raw(rec.Doc))
		e.order = rec.Order
		if old, ok := c.docs[rec.ID]; ok && e.order == 0 {
			e.order = old.order
		}
		c.bind(rec.ID, e)
		c.idSeq = max(c.idSeq, rec.IDSeq)
		c.orderSeq = max(c.orderSeq, e.order)
	case opDelete:
		if old, ok := c.docs[rec.ID]; ok {
			c.unindex(rec.ID, old)
			delete(c.docs, rec.ID)
		}
	default:
		return fmt.Errorf("docstore: unknown WAL op %q", rec.Op)
	}
	return nil
}

// load replaces the collection's contents with a decoded snapshot,
// in place (a replica's re-bootstrap keeps the K-DB's *Collection
// handles valid), and rebuilds its indexes.
func (c *Collection) load(snap snapshotFile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = make(map[string]entry, len(snap.Docs))
	for i := range c.indexes {
		c.indexes[i] = map[any][]string{}
	}
	c.idSeq, c.orderSeq = snap.IDSeq, snap.OrderSeq
	for i, d := range snap.Docs {
		id, e := c.parse(Raw(d))
		e.order = int64(i + 1)
		if i < len(snap.Orders) {
			e.order = snap.Orders[i]
		}
		c.bind(id, e)
		c.orderSeq = max(c.orderSeq, e.order)
	}
}

// snapshot encodes the collection as its snapshot file, documents in
// insertion order, each as its stored bytes.
func (c *Collection) snapshot() []byte {
	c.mu.RLock()
	docs := fmt.Appendf(nil, `{"id_seq":%d,"order_seq":%d,"docs":[`, c.idSeq, c.orderSeq)
	entries := c.entriesLocked()
	c.mu.RUnlock()
	sortByOrder(entries)
	orders := []byte(`],"orders":[`)
	for i, e := range entries {
		if i > 0 {
			docs, orders = append(docs, ','), append(orders, ',')
		}
		docs, orders = append(docs, e.Raw...), fmt.Append(orders, e.order)
	}
	return append(append(docs, orders...), "]}"...)
}

// Count reports the number of documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Scan streams every document through fn, in unspecified order,
// stopping early when fn returns false; order is the document's
// insertion-order stamp (sorting on it recovers insertion order). fn
// receives the stored document uncopied: immutable, so fn may keep it
// as a snapshot of that version, and must not modify it. fn runs under
// the collection's read lock and must not call back into the
// collection.
func (c *Collection) Scan(fn func(doc Doc, order int64) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, e := range c.docs {
		if !fn(e.Doc, e.order) {
			return
		}
	}
}

// entriesLocked gathers every entry, unordered (caller holds the lock).
func (c *Collection) entriesLocked() []entry {
	out := make([]entry, 0, len(c.docs))
	for _, e := range c.docs {
		out = append(out, e)
	}
	return out
}

func sortByOrder(entries []entry) {
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.order, b.order) })
}

// decoded decodes the entries' documents, in order (nil when none).
func decoded(entries []entry) []Document {
	if len(entries) == 0 {
		return nil
	}
	out := make([]Document, len(entries))
	for i := range entries {
		json.Unmarshal(entries[i].Raw, &out[i]) // stored bytes always decode
	}
	return out
}

// CreateIndex builds an equality index on field (once) for FindEq and
// WalkEq. Only scalars are indexed: a document whose field holds an
// object, an array or null matches no equality lookup.
func (c *Collection) CreateIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.Contains(c.fields, field) {
		return
	}
	idx := map[any][]string{}
	for id, e := range c.docs {
		key, _ := e.Field(field).Scalar()
		e.keys = append(e.keys[:len(e.keys):len(e.keys)], key)
		c.docs[id] = e
		if key != nil {
			idx[key] = append(idx[key], id)
		}
	}
	c.fields = append(c.fields, field)
	c.indexes = append(c.indexes, idx)
	c.reads = append(slices.Clone(c.fields), "_id")
}

// WalkEq calls fn on every document whose field equals value, in
// insertion order, stopping early when fn returns false: Scan's
// uncopied read, but ordered, answered from the index when the field
// is indexed, and run after the read lock is released, so fn may read
// the collection.
func (c *Collection) WalkEq(field string, value any, fn func(doc Doc, order int64) bool) {
	for _, e := range c.eqEntries(field, value) {
		if !fn(e.Doc, e.order) {
			return
		}
	}
}

// FindEq returns the documents whose field equals value decoded, in
// insertion order: WalkEq plus one decode per match.
func (c *Collection) FindEq(field string, value any) []Document {
	return decoded(c.eqEntries(field, value))
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
	if i := slices.Index(c.fields, field); i >= 0 {
		ids := c.indexes[i][key]
		out = make([]entry, len(ids))
		for j, id := range ids {
			out[j] = c.docs[id]
		}
	} else {
		for _, e := range c.docs {
			if v, ok := e.Field(field).Scalar(); ok && v == key {
				out = append(out, e)
			}
		}
	}
	c.mu.RUnlock()
	sortByOrder(out)
	return out
}

package docstore

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
)

// numShards is the lock-striping width of every collection. Sixteen
// stripes keep per-dataset writers of a busy K-DB off each other's
// locks while staying cheap to scan for cross-shard operations.
const numShards = 16

// shard is one lock stripe of a collection: a private mutex, the
// documents it owns, and its slice of every secondary index.
type shard struct {
	idx     int // position in Collection.shards, the lock order
	mu      sync.RWMutex
	docs    map[string]*entry
	indexes map[string]map[any][]string // field → value → ids
}

// entry is one stored document plus its insertion-order stamp (scan
// order is global insertion order, merged across shards by stamp).
type entry struct {
	doc   Document
	order int64
}

func newShard() *shard {
	return &shard{
		docs:    map[string]*entry{},
		indexes: map[string]map[any][]string{},
	}
}

// Collection is one named set of documents, striped across shards.
// All methods are safe for concurrent use.
type Collection struct {
	store *Store
	name  string

	idSeq    atomic.Int64 // generated-ID counter
	orderSeq atomic.Int64 // insertion-order stamps

	// cfgMu guards shardField and the indexed-field list (both written
	// rarely: at open/setup time).
	cfgMu      sync.RWMutex
	shardField string // "" = stripe by _id
	indexed    []string

	// explicitMu serializes inserts that carry an explicit _id: their
	// duplicate check must scan every stripe (the same ID could arrive
	// under a different shard-key value), and scan-then-insert is only
	// atomic if explicit-ID inserts cannot interleave. Generated IDs
	// are unique by construction and skip this lock.
	explicitMu sync.Mutex

	shards [numShards]*shard
}

func newCollection(store *Store, name string) *Collection {
	c := &Collection{store: store, name: name}
	for i := range c.shards {
		c.shards[i] = newShard()
		c.shards[i].idx = i
	}
	return c
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// ShardBy stripes the collection by the given document field: two
// documents land on the same shard exactly when their field values
// hash together, so readers and writers of different values (the K-DB
// stripes by dataset) contend on different locks, and FindEq on the
// shard field touches a single stripe. Documents missing the field
// (or holding a non-string value) stripe by _id. Existing documents
// are re-striped; call it once, right after opening, before concurrent
// use.
func (c *Collection) ShardBy(field string) {
	c.cfgMu.Lock()
	if c.shardField == field {
		c.cfgMu.Unlock()
		return
	}
	c.shardField = field
	c.cfgMu.Unlock()

	// Re-stripe under every shard lock (ordered, so no cycles).
	entries := map[string]*entry{}
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	for _, sh := range c.shards {
		for id, e := range sh.docs {
			entries[id] = e
		}
		sh.docs = map[string]*entry{}
		for f := range sh.indexes {
			sh.indexes[f] = map[any][]string{}
		}
	}
	for id, e := range entries {
		sh := c.shards[c.shardIndex(e.doc)]
		sh.docs[id] = e
		sh.indexEntry(e.doc)
	}
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// shardKey extracts the striping key of a document.
func (c *Collection) shardKey(d Document) string {
	c.cfgMu.RLock()
	field := c.shardField
	c.cfgMu.RUnlock()
	if field != "" {
		if v, ok := d[field].(string); ok && v != "" {
			return v
		}
	}
	return d.ID()
}

// shardIndex routes a document to its stripe. It MUST agree with
// FindEq's single-stripe fast path, which is why both compose the one
// shardForValue hash.
func (c *Collection) shardIndex(d Document) int {
	return shardForValue(c.shardKey(d))
}

// shardForValue maps a shard-field value to its stripe.
func shardForValue(v string) int {
	h := fnv.New32a()
	h.Write([]byte(v))
	return int(h.Sum32() % numShards)
}

// findShard locates the stripe currently holding id (documents stripe
// by shard-field value, so an ID alone does not determine the stripe).
// Returns the shard, the entry and true under no lock; callers re-check
// under the shard lock.
func (c *Collection) findShard(id string) (*shard, bool) {
	for _, sh := range c.shards {
		sh.mu.RLock()
		_, ok := sh.docs[id]
		sh.mu.RUnlock()
		if ok {
			return sh, true
		}
	}
	return nil, false
}

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

// applyInsert replays one insert during recovery (upsert semantics:
// replaying a record already folded into a snapshot is a no-op).
func (c *Collection) applyInsert(rec walRecord) {
	sh := c.shards[c.shardIndex(rec.Doc)]
	if old, ok := sh.docs[rec.ID]; ok {
		sh.unindexEntry(old.doc)
	}
	e := &entry{doc: rec.Doc, order: rec.Order}
	sh.docs[rec.ID] = e
	sh.indexEntry(rec.Doc)
	if rec.IDSeq > c.idSeq.Load() {
		c.idSeq.Store(rec.IDSeq)
	}
	if rec.Order > c.orderSeq.Load() {
		c.orderSeq.Store(rec.Order)
	}
}

// Get returns a copy of the document with the given ID.
func (c *Collection) Get(id string) (Document, bool) {
	for _, sh := range c.shards {
		sh.mu.RLock()
		if e, ok := sh.docs[id]; ok {
			d := copyDoc(e.doc)
			sh.mu.RUnlock()
			return d, true
		}
		sh.mu.RUnlock()
	}
	return nil, false
}

// Update replaces the document with the given ID (see Batch.Update)
// and returns once the write is durably logged.
func (c *Collection) Update(id string, doc Document) error {
	b := c.store.Begin()
	return b.finish(b.Update(c, id, doc))
}

// applyUpdate replays one update during recovery. A missing target
// upserts (the snapshot may already hold a later state).
func (c *Collection) applyUpdate(rec walRecord) {
	for _, sh := range c.shards {
		if old, ok := sh.docs[rec.ID]; ok {
			sh.unindexEntry(old.doc)
			delete(sh.docs, rec.ID)
			if rec.Order == 0 {
				rec.Order = old.order
			}
			break
		}
	}
	c.applyInsert(rec)
}

// Delete removes the document with the given ID and returns once the
// removal is durably logged.
func (c *Collection) Delete(id string) error {
	b := c.store.Begin()
	return b.finish(b.Delete(c, id))
}

// applyReplicated folds one shipped WAL record into the collection
// under shard locks: unlike the applyInsert/applyUpdate/applyDelete
// recovery path (single-threaded, lock-free), a replica applies while
// concurrent readers serve, so every mutation locks the stripes it
// touches. The replica is the store's only writer, which is what makes
// the unlocked findShard scan safe here. Semantics mirror replay:
// upsert on insert/update (a re-shipped frame after reconnect is a
// no-op), ignore-missing on delete.
func (c *Collection) applyReplicated(rec walRecord) {
	if rec.Op == opDelete {
		for _, sh := range c.shards {
			sh.mu.Lock()
			if old, ok := sh.docs[rec.ID]; ok {
				sh.unindexEntry(old.doc)
				delete(sh.docs, rec.ID)
				sh.mu.Unlock()
				return
			}
			sh.mu.Unlock()
		}
		return
	}

	dst := c.shards[c.shardIndex(rec.Doc)]
	order := rec.Order
	if src, ok := c.findShard(rec.ID); ok {
		lockPair(src, dst)
		if old, live := src.docs[rec.ID]; live {
			if order == 0 {
				order = old.order
			}
			src.unindexEntry(old.doc)
			delete(src.docs, rec.ID)
		}
		dst.docs[rec.ID] = &entry{doc: rec.Doc, order: order}
		dst.indexEntry(rec.Doc)
		unlockPair(src, dst)
	} else {
		dst.mu.Lock()
		if old, live := dst.docs[rec.ID]; live {
			if order == 0 {
				order = old.order
			}
			dst.unindexEntry(old.doc)
			delete(dst.docs, rec.ID)
		}
		dst.docs[rec.ID] = &entry{doc: rec.Doc, order: order}
		dst.indexEntry(rec.Doc)
		dst.mu.Unlock()
	}
	if rec.IDSeq > c.idSeq.Load() {
		c.idSeq.Store(rec.IDSeq)
	}
	if order > c.orderSeq.Load() {
		c.orderSeq.Store(order)
	}
}

// installSnapshot replaces the collection's entire contents with a
// decoded snapshot, under every shard lock, preserving the shard-field
// and index configuration — the in-memory half of a replica's
// re-bootstrap, which must not invalidate the *Collection handles a
// K-DB above the store already holds.
func (c *Collection) installSnapshot(snap snapshotFile) {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	for _, sh := range c.shards {
		sh.docs = map[string]*entry{}
		for f := range sh.indexes {
			sh.indexes[f] = map[any][]string{}
		}
	}
	c.idSeq.Store(snap.IDSeq)
	var maxOrder int64
	for i, d := range snap.Docs {
		order := int64(i + 1)
		if i < len(snap.Orders) {
			order = snap.Orders[i]
		}
		sh := c.shards[c.shardIndex(d)]
		sh.docs[d.ID()] = &entry{doc: d, order: order}
		sh.indexEntry(d)
		if order > maxOrder {
			maxOrder = order
		}
	}
	if snap.OrderSeq > maxOrder {
		maxOrder = snap.OrderSeq
	}
	c.orderSeq.Store(maxOrder)
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// applyDelete replays one delete during recovery (ignore-missing).
func (c *Collection) applyDelete(rec walRecord) {
	for _, sh := range c.shards {
		if old, ok := sh.docs[rec.ID]; ok {
			sh.unindexEntry(old.doc)
			delete(sh.docs, rec.ID)
			return
		}
	}
}

// Count reports the number of documents.
func (c *Collection) Count() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// Scan streams every live document through fn without copying, in
// unspecified order, stopping early when fn returns false; order is the
// document's insertion-order stamp (sorting on it recovers Find's
// order). fn runs under a shard read lock and receives the store's
// internal document: it must treat it as strictly read-only and must
// not call back into the collection (deadlock). The store never
// mutates a stored document in place — every write binds a fresh copy
// — so fn may keep the document after the call, read-only, as a
// snapshot of that version. It is the zero-allocation read path for
// whole-collection aggregation (e.g. the K-DB's descriptor-similarity
// scoring).
func (c *Collection) Scan(fn func(doc Document, order int64) bool) {
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, e := range sh.docs {
			if !fn(e.doc, e.order) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// collect gathers the entries match accepts (nil accepts every one)
// from every shard in insertion order, without copying their
// documents.
func (c *Collection) collect(match func(Document) bool) []entry {
	var out []entry
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, e := range sh.docs {
			if match == nil || match(e.doc) {
				out = append(out, *e)
			}
		}
		sh.mu.RUnlock()
	}
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
	c.cfgMu.Lock()
	found := false
	for _, f := range c.indexed {
		if f == field {
			found = true
			break
		}
	}
	if !found {
		c.indexed = append(c.indexed, field)
	}
	c.cfgMu.Unlock()

	for _, sh := range c.shards {
		sh.mu.Lock()
		idx := map[any][]string{}
		for id, e := range sh.docs {
			if key, ok := normalize(e.doc[field]); ok {
				idx[key] = append(idx[key], id)
			}
		}
		sh.indexes[field] = idx
		sh.mu.Unlock()
	}
}

// WalkEq calls fn on every document whose field equals value, in
// insertion order, stopping early when fn returns false. It is Scan's
// zero-copy read under Scan's contract — fn receives the store's own
// document, strictly read-only, which it may keep as a snapshot — but
// ordered, and answered from the per-shard index when the field is
// indexed (a scan otherwise). When the field is also the shard field
// and the value a string, only the owning stripe is touched. fn runs
// after the shard locks are released, so it may read the collection.
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
	c.cfgMu.RLock()
	indexed := slices.Contains(c.indexed, field)
	shardField := c.shardField
	c.cfgMu.RUnlock()
	key, ok := normalize(value)
	if !ok {
		return nil
	}
	if !indexed {
		return c.collect(func(d Document) bool {
			v, ok := normalize(d[field])
			return ok && v == key
		})
	}

	var entries []entry
	scanShard := func(sh *shard) {
		sh.mu.RLock()
		for _, id := range sh.indexes[field][key] {
			if e, live := sh.docs[id]; live {
				entries = append(entries, *e)
			}
		}
		sh.mu.RUnlock()
	}
	if v, ok := value.(string); ok && field == shardField && v != "" {
		// Shard-field lookups are single-stripe by construction; a
		// document whose field is this value but striped by _id (the
		// value was added by a later Update without a move — impossible,
		// updates re-stripe) cannot exist elsewhere.
		scanShard(c.shards[shardForValue(v)])
	} else {
		for _, sh := range c.shards {
			scanShard(sh)
		}
	}
	sortByOrder(entries)
	return entries
}

// indexEntry adds d to every index of the shard (caller holds the
// shard lock).
func (sh *shard) indexEntry(d Document) {
	for field, idx := range sh.indexes {
		if key, ok := normalize(d[field]); ok {
			idx[key] = append(idx[key], d.ID())
		}
	}
}

// unindexEntry removes d from every index of the shard (caller holds
// the shard lock).
func (sh *shard) unindexEntry(d Document) {
	for field, idx := range sh.indexes {
		key, ok := normalize(d[field])
		if !ok {
			continue
		}
		ids := idx[key]
		for i, id := range ids {
			if id == d.ID() {
				idx[key] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
}

// lockPair write-locks two (possibly identical) shards in a global
// order so concurrent cross-stripe updates cannot deadlock.
func lockPair(a, b *shard) {
	if a == b {
		a.mu.Lock()
		return
	}
	if a.idx < b.idx {
		a.mu.Lock()
		b.mu.Lock()
	} else {
		b.mu.Lock()
		a.mu.Lock()
	}
}

func unlockPair(a, b *shard) {
	if a == b {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	b.mu.Unlock()
}

// Package kdb implements ADA-HEALTH's Knowledge Database: the
// persistent memory that drives the self-learning analysis tasks.
// Its data model is the six collections of Section IV-A, of which it
// stores the four something reads back:
//
//  1. raw_datasets      — not stored: the log comes with the request (a
//     live dataset's, in live_appends)
//  2. transformed       — not stored: its summary is Report.Transformed
//  3. descriptors       — statistical descriptors of data distributions
//  4. knowledge_cluster — knowledge items from clustering algorithms
//  5. knowledge_pattern — knowledge items from pattern discovery
//  6. feedback          — user interaction feedback
//
// The streaming layer adds live_datasets and live_appends. Documents an
// older build wrote to raw_datasets, transformed or stage_traces, and
// its recall hit/miss rows in feedback, still load; nothing reads them.
//
// The store is the embedded document store of package docstore (the
// MongoDB substitution), and a disk-backed K-DB is durable — mutations
// hit a group-committed write-ahead log and survive a daemon kill,
// with snapshot compaction bounding reopen time.
//
// Every read is a typed accessor over one collection; there is no
// generic query. SimilarDatasets ranks stored descriptors by
// statistical similarity — the retrieval path of the paper's
// self-learning loop (the recall stage warm-starts new analyses from
// it).
//
// # Reads decode only what they return
//
// Decoding a stored document into a typed value is a JSON round trip,
// the dominant cost of a read. So reads select, filter and rank on the
// stored documents in place (docstore's zero-copy Scan and WalkEq) and
// decode only what they return, each counted by
// kdb_documents_decoded_total: ClusterSets (recall's read) the
// dataset's cluster-set items, GoalFeedback (the end-goal trainer's)
// the rows with an accepted goal, TopKnowledge the top n after ranking
// on the stored metrics.<m> and id fields, KnowledgeItems its first
// limit items. Descriptors are decoded once per process (descCache).
// A document that does not decode (a foreign schema, a hand edit)
// therefore fails a read only when that read returns it: an undecodable
// pattern item no longer hides its dataset's cluster sets from recall,
// while an undecodable cluster set still does. TopKnowledge also fails
// when a ranked document's metric or id is not of its decoded type.
//
// # Failure semantics
//
// A circuit breaker (see Health) classifies disk trouble into two
// degraded modes. When the underlying store breaks — a WAL commit
// failure, surfaced as docstore.ErrStoreBroken — the K-DB goes
// offline: every write AND read is refused with ErrOffline, because
// the in-memory state may be ahead of what reopening would recover.
// Offline is terminal for the handle; recovery is reopening the K-DB,
// which restores exactly the durable prefix. When flushes or
// compactions fail repeatedly (snapshot faults, full disk) without
// breaking the store, the breaker trips read-only: writes are refused
// with ErrReadOnly and counted as dropped, reads keep serving, and
// after a cooldown one Flush runs as a half-open probe whose success
// closes the breaker. The analysis pipeline treats both refusals as
// soft (recall falls back to its cold path, knowledge writes are
// recorded as dropped in the report) — see internal/core.
package kdb

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"adahealth/internal/docstore"
	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
)

// Collection names of the persisted part of the paper's data model.
const (
	CollDescriptors = "descriptors"
	CollClusterKI   = "knowledge_cluster"
	CollPatternKI   = "knowledge_pattern"
	CollFeedback    = "feedback"
	// Live-dataset collections back the streaming subsystem
	// (internal/stream): one state document per registered live
	// dataset and one append-only document per accepted visit batch,
	// so a restarted daemon resumes its streams from the WAL.
	CollLiveDatasets = "live_datasets"
	CollLiveAppends  = "live_appends"
)

// Feedback is one user interaction: a domain expert grading a
// knowledge item's interestingness for a dataset.
type Feedback struct {
	User     string             `json:"user"`
	Dataset  string             `json:"dataset"`
	ItemID   string             `json:"item_id"`
	ItemKind string             `json:"item_kind"`
	Goal     string             `json:"goal,omitempty"`
	Interest knowledge.Interest `json:"interest"`
}

// KDB wraps the document store with the K-DB's collection schema.
type KDB struct {
	store *docstore.Store
	br    *breaker

	// descMu guards descCache: decoded descriptors keyed by document
	// ID. Descriptor documents are append-only (never updated), so the
	// cache never goes stale; it keeps SimilarDatasets and Descriptors
	// — both run on every analysis — from JSON-round-tripping the whole
	// descriptor history each time. Documents that failed to decode are
	// cached with their error.
	descMu    sync.Mutex
	descCache map[string]decodedDescriptor

	// foldThreshold is how many fold-eligible live_appends documents
	// trigger a flush-time fold (DefaultLiveFoldThreshold; 0 or
	// negative disables folding). It is fixed at construction.
	foldThreshold int
}

// Open creates or loads a K-DB. dir == "" keeps it in memory.
func Open(dir string) (*KDB, error) {
	return OpenStore(docstore.Options{Dir: dir})
}

// OpenStore is Open with explicit store options — the seam
// fault-injection tests use to run a K-DB over a faulty filesystem
// (docstore.Options.FS).
func OpenStore(opts docstore.Options) (*KDB, error) {
	s, err := docstore.OpenOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("kdb: %w", err)
	}
	return newKDB(s), nil
}

// newKDB wraps s and applies the K-DB's index layout — shared by
// OpenStore and Follower so a replication follower answers the same
// dataset-scoped reads through the same indexes.
func newKDB(s *docstore.Store) *KDB {
	// Equality indexes on the access paths the pipeline uses.
	s.Collection(CollClusterKI).CreateIndex("dataset")
	s.Collection(CollPatternKI).CreateIndex("dataset")
	s.Collection(CollDescriptors).CreateIndex("dataset")
	s.Collection(CollFeedback).CreateIndex("dataset")
	s.Collection(CollLiveAppends).CreateIndex("dataset")
	return &KDB{
		store:         s,
		br:            newBreaker(),
		descCache:     map[string]decodedDescriptor{},
		foldThreshold: DefaultLiveFoldThreshold,
	}
}

// Follower wraps a replication follower's store (docstore.Replica) in
// a read-only K-DB: the typed read accessors (KnowledgeItems,
// TopKnowledge, SimilarDatasets, ...) serve from the replicated
// collections, while every write and flush is refused with ErrFollower
// (the store's only writer is the replication apply loop, and
// compaction belongs to the leader). The replica's lifecycle owns the
// store: Close on a follower K-DB is a no-op.
func Follower(s *docstore.Store) *KDB {
	k := newKDB(s)
	k.br.mode = ModeFollower
	setModeGauge(ModeFollower)
	return k
}

// Close compacts and releases a disk-backed K-DB (no-op in memory).
// The K-DB must not be used afterwards. A follower K-DB's store is
// owned by its docstore.Replica, so Close leaves it alone.
func (k *KDB) Close() error {
	if k.br.health().Mode == ModeFollower {
		return nil
	}
	return k.store.Close()
}

// Flush persists the store when it is disk-backed. Flush is the
// breaker's half-open probe point: while read-only it is refused with
// ErrReadOnly until the cooldown elapses, then one flush runs and its
// success closes the breaker.
func (k *KDB) Flush() error {
	if err := k.br.beforeFlush(); err != nil {
		return err
	}
	// Live-append folding runs at flush time so its deletes ride the
	// WAL the flush is about to compact; a failed fold counts as a
	// flush failure for the breaker.
	err := k.foldLiveAppends()
	if err == nil {
		err = k.store.Flush()
	}
	k.br.afterFlush(err)
	return err
}

// Store exposes the underlying document store (read-mostly uses such
// as diagnostics and tests).
func (k *KDB) Store() *docstore.Store { return k.store }

// toDoc converts any JSON-marshalable value to a Document.
func toDoc(v any) (docstore.Document, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var d docstore.Document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return d, nil
}

// fromDoc decodes a document into out: the one decode of every read.
func fromDoc(d docstore.Document, out any) error {
	documentsDecoded.Inc()
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// StoreDescriptor records a statistical descriptor (collection 3).
func (k *KDB) StoreDescriptor(d stats.Descriptor) (string, error) {
	if err := k.br.beforeWrite(); err != nil {
		return "", err
	}
	id, err := k.storeDescriptor(d)
	k.br.afterWrite(err)
	return id, err
}

func (k *KDB) storeDescriptor(d stats.Descriptor) (string, error) {
	doc, err := toDoc(d)
	if err != nil {
		return "", fmt.Errorf("kdb: encoding descriptor: %w", err)
	}
	doc["dataset"] = d.DatasetName
	id, err := k.store.Collection(CollDescriptors).Insert(doc)
	if err != nil {
		return "", err
	}
	k.descMu.Lock()
	k.descCache[id] = decodedDescriptor{id: id, desc: d}
	k.descMu.Unlock()
	return id, nil
}

// Descriptors returns all stored descriptors in insertion order. A
// document that does not decode fails the call.
func (k *KDB) Descriptors() ([]stats.Descriptor, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	all := k.decodedDescriptors()
	out := make([]stats.Descriptor, len(all))
	for i, dd := range all {
		if dd.err != nil {
			return nil, fmt.Errorf("kdb: decoding descriptor %s: %w", dd.id, dd.err)
		}
		out[i] = dd.desc
	}
	return out, nil
}

// decodedDescriptor is one descriptor document decoded through
// descCache; err is set (and desc zero) when it did not decode. order
// is the document's insertion stamp as of the scan that returned it
// (not cached).
type decodedDescriptor struct {
	id    string
	order int64
	desc  stats.Descriptor
	err   error
}

// decodedDescriptors returns every stored descriptor in insertion
// order, decoding only the documents descCache has not seen: the Scan
// reads raw documents without copying, and descriptor documents are
// append-only, so each pays the JSON round trip at most once per
// process lifetime. Decode failures are cached too — a descriptor
// written under another schema version (or by hand) is reported, not
// re-parsed, on every call.
func (k *KDB) decodedDescriptors() []decodedDescriptor {
	var all []decodedDescriptor
	k.descMu.Lock()
	k.store.Collection(CollDescriptors).Scan(func(doc docstore.Document, order int64) bool {
		id := doc.ID()
		dd, ok := k.descCache[id]
		if !ok {
			dd = decodedDescriptor{id: id}
			dd.err = fromDoc(doc, &dd.desc)
			if dd.err != nil {
				dd.desc = stats.Descriptor{}
			}
			k.descCache[id] = dd
		}
		dd.order = order
		all = append(all, dd)
		return true
	})
	k.descMu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].order < all[j].order })
	return all
}

// StoreKnowledgeItems routes items to collection 4 or 5 by kind.
// Items with IDs already present are updated rather than duplicated.
func (k *KDB) StoreKnowledgeItems(items []knowledge.Item) error {
	if err := k.br.beforeWrite(); err != nil {
		return err
	}
	err := k.storeKnowledgeItems(items)
	k.br.afterWrite(err)
	return err
}

// storeKnowledgeItems upserts one analysis's items as one batch: the
// job waits for the disk once, and two analyses storing the same item
// IDs concurrently both succeed (the store decides insert-or-replace
// atomically per item).
func (k *KDB) storeKnowledgeItems(items []knowledge.Item) error {
	b := k.store.Begin()
	defer b.Commit()
	for _, it := range items {
		doc, err := toDoc(it)
		if err != nil {
			return fmt.Errorf("kdb: encoding knowledge item %s: %w", it.ID, err)
		}
		doc["_id"] = it.ID
		doc["dataset"] = it.Dataset
		if _, err := b.Upsert(k.collectionFor(it.Kind), doc); err != nil {
			return fmt.Errorf("kdb: storing knowledge item %s: %w", it.ID, err)
		}
	}
	if err := b.Commit(); err != nil {
		return fmt.Errorf("kdb: storing knowledge items: %w", err)
	}
	return nil
}

func (k *KDB) collectionFor(kind knowledge.Kind) *docstore.Collection {
	switch kind {
	case knowledge.KindPattern, knowledge.KindRule:
		return k.store.Collection(CollPatternKI)
	default:
		return k.store.Collection(CollClusterKI)
	}
}

// knowledgeColls are the two knowledge collections in read order.
func (k *KDB) knowledgeColls() [2]*docstore.Collection {
	return [2]*docstore.Collection{k.store.Collection(CollClusterKI), k.store.Collection(CollPatternKI)}
}

// KnowledgeItems returns the items of the dataset from both knowledge
// collections (dataset == "" returns everything), cluster items first,
// each collection in insertion order, truncated to limit (<= 0 returns
// all). Only the returned items are decoded.
func (k *KDB) KnowledgeItems(datasetName string, limit int) ([]knowledge.Item, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	var docs []docstore.Document
	for _, coll := range k.knowledgeColls() {
		docs = append(docs, inScope(coll, datasetName, nil)...)
	}
	if limit > 0 && len(docs) > limit {
		docs = docs[:limit]
	}
	return decodeAll[knowledge.Item](docs, "knowledge item")
}

// ClusterSets returns the dataset's cluster-set items — the fitted
// models recall warm-starts from — in insertion order. They live only
// in knowledge_cluster (see collectionFor); they are selected on the
// stored documents' kind, and only they are decoded.
func (k *KDB) ClusterSets(datasetName string) ([]knowledge.Item, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	docs := inScope(k.store.Collection(CollClusterKI), datasetName, func(d docstore.Document) bool {
		return d["kind"] == string(knowledge.KindClusterSet)
	})
	return decodeAll[knowledge.Item](docs, "cluster-set item")
}

// inScope returns the documents of coll in scope that keep accepts
// (nil keeps all), in insertion order. They are the store's own
// documents, uncopied: callers only read them (see
// docstore.Collection.Scan), and decode just the ones they return.
func inScope(coll *docstore.Collection, datasetName string, keep func(docstore.Document) bool) []docstore.Document {
	type stamped struct {
		doc   docstore.Document
		order int64
	}
	var sel []stamped
	walkScope(coll, datasetName, func(d docstore.Document, order int64) bool {
		if keep == nil || keep(d) {
			sel = append(sel, stamped{d, order})
		}
		return true
	})
	if datasetName == "" { // a scan: unordered
		slices.SortFunc(sel, func(a, b stamped) int { return cmp.Compare(a.order, b.order) })
	}
	docs := make([]docstore.Document, len(sel))
	for i, s := range sel {
		docs[i] = s.doc
	}
	return docs
}

// walkScope walks coll without copying: the dataset's documents in
// insertion order when datasetName is set (WalkEq), every document in
// no order otherwise (Scan).
func walkScope(coll *docstore.Collection, datasetName string, fn func(d docstore.Document, order int64) bool) {
	if datasetName != "" {
		coll.WalkEq("dataset", datasetName, fn)
	} else {
		coll.Scan(fn)
	}
}

// decodeAll decodes docs in order, failing on the first that does not
// decode.
func decodeAll[T any](docs []docstore.Document, what string) ([]T, error) {
	out := make([]T, len(docs))
	for i, d := range docs {
		if err := fromDoc(d, &out[i]); err != nil {
			return nil, fmt.Errorf("kdb: decoding %s: %w", what, err)
		}
	}
	return out, nil
}

// RecordFeedback appends one user interaction (collection 6).
func (k *KDB) RecordFeedback(fb Feedback) error {
	if err := k.br.beforeWrite(); err != nil {
		return err
	}
	err := k.recordFeedback(fb)
	k.br.afterWrite(err)
	return err
}

func (k *KDB) recordFeedback(fb Feedback) error {
	if fb.Interest == "" {
		return fmt.Errorf("kdb: feedback without interest degree")
	}
	doc, err := toDoc(fb)
	if err != nil {
		return fmt.Errorf("kdb: encoding feedback: %w", err)
	}
	if _, err := k.store.Collection(CollFeedback).Insert(doc); err != nil {
		return fmt.Errorf("kdb: storing feedback: %w", err)
	}
	return nil
}

// FeedbackFor returns feedback entries in insertion order, filtered by
// dataset when datasetName is non-empty.
func (k *KDB) FeedbackFor(datasetName string) ([]Feedback, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	return decodeAll[Feedback](inScope(k.store.Collection(CollFeedback), datasetName, nil), "feedback")
}

// GoalFeedback returns the feedback entries whose goal isGoal accepts,
// in insertion order. Rows are selected on the stored documents' goal
// field and only the accepted ones are decoded, so rows with another
// goal (such as the recall hit/miss rows older builds wrote) cost no
// decode.
func (k *KDB) GoalFeedback(isGoal func(goal string) bool) ([]Feedback, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	docs := inScope(k.store.Collection(CollFeedback), "", func(d docstore.Document) bool {
		goal, _ := d["goal"].(string)
		return isGoal(goal)
	})
	return decodeAll[Feedback](docs, "feedback")
}

// TopKnowledge returns up to n knowledge items of a dataset with the
// highest value of the given metric (e.g. "support", "confidence",
// "lift", "size"), ties broken by ascending ID; items lacking the
// metric are excluded. It answers the navigation layer's "most
// interesting first" queries directly from the K-DB: items are ranked
// on their stored metrics.<metric> and id fields and only the top n
// are decoded. A ranked document whose metric is not a JSON number, or
// whose id is not a JSON string, fails the call.
func (k *KDB) TopKnowledge(datasetName, metric string, n int) ([]knowledge.Item, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	// The rank is total: metric descending, then ID, then KnowledgeItems'
	// order (cluster collection first, each in insertion order), so it
	// is the stable sort of a full decode. top keeps the best
	// n candidates in rank order as they stream past (every candidate
	// when n <= 0, sorted at the end).
	type ranked struct {
		doc   docstore.Document
		value float64
		id    string
		coll  int
		order int64
	}
	rank := func(a, b ranked) int {
		if c := cmp.Compare(b.value, a.value); c != 0 {
			return c
		}
		if c := strings.Compare(a.id, b.id); c != 0 {
			return c
		}
		if a.coll != b.coll {
			return a.coll - b.coll
		}
		return cmp.Compare(a.order, b.order)
	}
	var (
		top []ranked
		bad docstore.Document
	)
	for ci, coll := range k.knowledgeColls() {
		walkScope(coll, datasetName, func(d docstore.Document, order int64) bool {
			raw, ok := rawMetrics(d)[metric]
			if !ok {
				return true
			}
			v, okV := jsonFloat(raw)
			id, okID := jsonString(d["id"])
			if !okV || !okID {
				bad = d
			}
			r := ranked{d, v, id, ci, order}
			switch {
			case n <= 0:
				top = append(top, r)
			case len(top) < n || rank(r, top[n-1]) < 0:
				i, _ := slices.BinarySearchFunc(top, r, rank)
				top = slices.Insert(top, i, r)
				top = top[:min(len(top), n)]
			}
			return true
		})
	}
	if bad != nil {
		return nil, fmt.Errorf("kdb: knowledge item %s: metric %q or id is not of its decoded type", bad.ID(), metric)
	}
	if n <= 0 {
		slices.SortFunc(top, rank)
	}
	out := make([]knowledge.Item, len(top))
	for i, c := range top {
		if err := fromDoc(c.doc, &out[i]); err != nil {
			return nil, fmt.Errorf("kdb: decoding knowledge item: %w", err)
		}
	}
	return out, nil
}

// rawMetrics is a stored knowledge document's metrics object (nil when
// absent or not an object).
func rawMetrics(d docstore.Document) map[string]any {
	m, _ := d["metrics"].(map[string]any)
	return m
}

// jsonFloat and jsonString read a stored JSON scalar as the value it
// decodes to; null decodes to the zero value.
func jsonFloat(v any) (float64, bool) { f, ok := v.(float64); return f, ok || v == nil }

func jsonString(v any) (string, bool) { s, ok := v.(string); return s, ok || v == nil }

// collections are the K-DB's collections, in the order of the paper's
// data model.
var collections = []string{
	CollDescriptors, CollClusterKI, CollPatternKI, CollFeedback,
	CollLiveDatasets, CollLiveAppends,
}

// Counts reports the document count of every collection.
func (k *KDB) Counts() map[string]int {
	out := map[string]int{}
	for _, name := range collections {
		out[name] = k.store.Collection(name).Count()
	}
	return out
}

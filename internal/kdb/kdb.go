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
// The streaming layer adds live_appends, whose batches are a live
// dataset's one durable history, and live_datasets, one drift-baseline
// control record per dataset; an older build's live-batch folds still
// replay. Documents an older build wrote to raw_datasets, transformed
// or stage_traces, and its recall hit/miss rows in feedback, still
// load; nothing reads them.
// The store is package docstore (the MongoDB substitution); a
// disk-backed K-DB survives a daemon kill through its write-ahead log.
// Every read is a typed accessor over one collection; SimilarDatasets
// ranks stored descriptors by statistical similarity, the retrieval
// path of the paper's self-learning loop (recall warm-starts from it).
//
// # Documents are the JSON they were written as
//
// A write marshals its typed value once and the store keeps those
// bytes; a read decodes a document with one json.Unmarshal, counted by
// kdb_documents_decoded_total. Reads select, filter and rank on the
// stored bytes in place (docstore.Doc.Fields) and decode only what they
// return: ClusterSets reads kind, GoalFeedback goal, TopKnowledge id
// and metrics.<m>, and KnowledgeItems decodes its first limit items;
// descriptors decode once per process (descCache). A document that
// does not decode (a foreign schema, a hand edit) fails a read only
// when that read returns it; TopKnowledge also fails when a ranked
// document's metric or id is not of its decoded type.
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
	"strconv"
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
	// (internal/stream): one append-only document per accepted visit
	// batch, from which a restarted daemon resumes its streams, and one
	// drift-baseline document per live dataset.
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
	// ID, so SimilarDatasets and Descriptors — both run on every
	// analysis — do not decode the whole descriptor history each time.
	descMu    sync.Mutex
	descCache map[string]decodedDescriptor

	// flushMu serializes Flush: one flush at a time passes the breaker
	// gate, flushes the store and records its outcome, so concurrent
	// flushes neither compact the same log back to back nor report a
	// half-open probe's outcome out of order.
	flushMu sync.Mutex
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
	for _, c := range []string{CollClusterKI, CollPatternKI, CollDescriptors, CollFeedback, CollLiveAppends} {
		s.Collection(c).CreateIndex("dataset")
	}
	return &KDB{store: s, br: newBreaker(), descCache: map[string]decodedDescriptor{}}
}

// Follower wraps a replication follower's store (docstore.Replica) in
// a read-only K-DB: the typed reads serve from the replicated
// collections, every write and flush is refused with ErrFollower, and
// Close is a no-op (the replica owns the store).
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

// Flush persists the store when it is disk-backed, compacting it once
// its WAL outgrows the budget (docstore.Store.Flush); it writes no
// document of its own. Flush is the breaker's half-open probe point:
// while read-only it is refused with ErrReadOnly until the cooldown
// elapses, then one flush runs and its success closes the breaker.
// Concurrent calls run one at a time.
func (k *KDB) Flush() error {
	k.flushMu.Lock()
	defer k.flushMu.Unlock()
	if err := k.br.beforeFlush(); err != nil {
		return err
	}
	err := k.store.Flush()
	k.br.afterFlush(err)
	return err
}

// Store exposes the underlying document store (read-mostly uses such
// as diagnostics and tests).
func (k *KDB) Store() *docstore.Store { return k.store }

// decode decodes a stored document into out: the one decode of every
// read.
func decode(doc docstore.Doc, out any) error {
	documentsDecoded.Inc()
	return json.Unmarshal(doc.Raw, out)
}

// StoreDescriptor records a statistical descriptor (collection 3).
func (k *KDB) StoreDescriptor(d stats.Descriptor) (id string, err error) {
	err = k.br.write(func() error {
		// The dataset field is what the collection's index reads.
		id, err = k.store.Collection(CollDescriptors).Insert(struct {
			stats.Descriptor
			Dataset string `json:"dataset"`
		}{d, d.DatasetName})
		return err
	})
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
// descCache; err is set (and desc zero) when it did not decode.
type decodedDescriptor struct {
	id   string
	desc stats.Descriptor
	err  error
}

// decodedDescriptors returns every stored descriptor in insertion
// order, decoding only the documents descCache has not seen: descriptor
// documents are append-only, so each is decoded at most once per
// process. Decode failures are cached too — a descriptor written under
// another schema version (or by hand) is reported, not re-parsed.
func (k *KDB) decodedDescriptors() []decodedDescriptor {
	docs := inScope(k.store.Collection(CollDescriptors), "", nil)
	all := make([]decodedDescriptor, len(docs))
	k.descMu.Lock()
	defer k.descMu.Unlock()
	for i, doc := range docs {
		id := doc.ID()
		dd, ok := k.descCache[id]
		if !ok {
			dd = decodedDescriptor{id: id}
			if dd.err = decode(doc, &dd.desc); dd.err != nil {
				dd.desc = stats.Descriptor{}
			}
			k.descCache[id] = dd
		}
		all[i] = dd
	}
	return all
}

// StoreKnowledgeItems routes items to collection 4 or 5 by kind.
// Items with IDs already present are updated rather than duplicated.
// One analysis's items are one batch: the job waits for the disk once,
// and two analyses storing the same item IDs concurrently both succeed
// (the store decides insert-or-replace atomically per item).
func (k *KDB) StoreKnowledgeItems(items []knowledge.Item) error {
	return k.br.write(func() error {
		b := k.store.Begin()
		defer b.Commit()
		for _, it := range items {
			// The members reads select on go last, where the store
			// reads them first (docstore.Doc.Fields).
			doc := struct {
				ID string `json:"_id"`
				knowledge.Item
				Kind    knowledge.Kind     `json:"kind"`
				Metrics map[string]float64 `json:"metrics"`
				ItemID  string             `json:"id"`
			}{it.ID, it, it.Kind, it.Metrics, it.ID}
			if _, err := b.Upsert(k.collectionFor(it.Kind), doc); err != nil {
				return fmt.Errorf("kdb: storing knowledge item %s: %w", it.ID, err)
			}
		}
		if err := b.Commit(); err != nil {
			return fmt.Errorf("kdb: storing knowledge items: %w", err)
		}
		return nil
	})
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
	var docs []docstore.Doc
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
	docs := inScope(k.store.Collection(CollClusterKI), datasetName, func(d docstore.Doc) bool {
		kind, _ := d.Field("kind").Scalar()
		return kind == string(knowledge.KindClusterSet)
	})
	return decodeAll[knowledge.Item](docs, "cluster-set item")
}

// inScope returns the documents of coll in scope that keep accepts
// (nil keeps all), in insertion order. They are the store's own
// documents, uncopied: callers only read them (see
// docstore.Collection.Scan), and decode just the ones they return.
func inScope(coll *docstore.Collection, datasetName string, keep func(docstore.Doc) bool) []docstore.Doc {
	type stamped struct {
		doc   docstore.Doc
		order int64
	}
	var sel []stamped
	walkScope(coll, datasetName, func(d docstore.Doc, order int64) bool {
		if keep == nil || keep(d) {
			sel = append(sel, stamped{d, order})
		}
		return true
	})
	if datasetName == "" { // a scan: unordered
		slices.SortFunc(sel, func(a, b stamped) int { return cmp.Compare(a.order, b.order) })
	}
	docs := make([]docstore.Doc, len(sel))
	for i, s := range sel {
		docs[i] = s.doc
	}
	return docs
}

// walkScope walks coll without copying: the dataset's documents in
// insertion order when datasetName is set (WalkEq), every document in
// no order otherwise (Scan).
func walkScope(coll *docstore.Collection, datasetName string, fn func(d docstore.Doc, order int64) bool) {
	if datasetName != "" {
		coll.WalkEq("dataset", datasetName, fn)
	} else {
		coll.Scan(fn)
	}
}

// decodeAll decodes docs in order, failing on the first that does not
// decode.
func decodeAll[T any](docs []docstore.Doc, what string) ([]T, error) {
	out := make([]T, len(docs))
	for i, d := range docs {
		if err := decode(d, &out[i]); err != nil {
			return nil, fmt.Errorf("kdb: decoding %s: %w", what, err)
		}
	}
	return out, nil
}

// RecordFeedback appends one user interaction (collection 6).
func (k *KDB) RecordFeedback(fb Feedback) error {
	return k.br.write(func() error {
		if fb.Interest == "" {
			return fmt.Errorf("kdb: feedback without interest degree")
		}
		if _, err := k.store.Collection(CollFeedback).Insert(fb); err != nil {
			return fmt.Errorf("kdb: storing feedback: %w", err)
		}
		return nil
	})
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
	docs := inScope(k.store.Collection(CollFeedback), "", func(d docstore.Doc) bool {
		goal, _ := d.Field("goal").Scalar()
		s, _ := goal.(string)
		return isGoal(s)
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
	// The rank is total — metric descending, ID, then KnowledgeItems'
	// order — so it is the stable sort of a full decode. top keeps the
	// best n candidates in rank order as they stream past (every one
	// when n <= 0, sorted at the end).
	type ranked struct {
		doc   docstore.Doc
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
		bad docstore.Doc
	)
	for ci, coll := range k.knowledgeColls() {
		walkScope(coll, datasetName, func(d docstore.Doc, order int64) bool {
			var f [2]docstore.Raw // id, metrics
			d.Fields(f[:], "id", "metrics")
			raw := f[1].Field(metric)
			if raw == nil {
				return true
			}
			v, okV := jsonFloat(raw)
			if okID := f[0] == nil || string(f[0]) == "null" || f[0][0] == '"'; !okV || !okID {
				bad = d
			}
			if n > 0 && len(top) == n && v < top[n-1].value {
				return true // ranks below the top n whatever its id
			}
			id, _ := f[0].Scalar()
			s, _ := id.(string)
			r := ranked{d, v, s, ci, order}
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
	if bad.Raw != nil {
		return nil, fmt.Errorf("kdb: knowledge item %s: metric %q or id is not of its decoded type", bad.ID(), metric)
	}
	if n <= 0 {
		slices.SortFunc(top, rank)
	}
	out := make([]knowledge.Item, len(top))
	for i, c := range top {
		if err := decode(c.doc, &out[i]); err != nil {
			return nil, fmt.Errorf("kdb: decoding knowledge item: %w", err)
		}
	}
	return out, nil
}

// jsonFloat reads a stored metric as the float64 it decodes to (null
// as 0); ok is false for any value but a number or null.
func jsonFloat(raw docstore.Raw) (float64, bool) {
	if string(raw) == "null" {
		return 0, true
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	return f, err == nil
}

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

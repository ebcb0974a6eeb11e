// Package kdb implements ADA-HEALTH's Knowledge Database: the
// persistent memory that drives the self-learning analysis tasks.
// Its data model is exactly the six collections of Section IV-A:
//
//  1. raw_datasets      — the original datasets
//  2. transformed       — the transformed datasets after preprocessing
//  3. descriptors       — statistical descriptors of data distributions
//  4. knowledge_cluster — knowledge items from clustering algorithms
//  5. knowledge_pattern — knowledge items from pattern discovery
//  6. feedback          — user interaction feedback
//
// The store is the embedded document store of package docstore (the
// MongoDB substitution; see DESIGN.md): every collection is striped
// per dataset (lock striping keeps concurrent analyses of different
// datasets off each other's locks), and a disk-backed K-DB is durable
// — mutations hit a group-committed write-ahead log and survive a
// daemon kill, with snapshot compaction bounding reopen time.
//
// Beyond the typed accessors, Query offers declarative
// filter/sort/limit lookups over any collection, and SimilarDatasets
// ranks stored descriptors by statistical similarity — the retrieval
// path of the paper's self-learning loop (the recall stage warm-starts
// new analyses from it).
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
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
)

// Collection names of the paper's data model, plus the engine's own
// operational telemetry (stage_traces, added by the stage-graph
// pipeline engine — not part of the paper's six collections).
const (
	CollRaw         = "raw_datasets"
	CollTransformed = "transformed"
	CollDescriptors = "descriptors"
	CollClusterKI   = "knowledge_cluster"
	CollPatternKI   = "knowledge_pattern"
	CollFeedback    = "feedback"
	CollStageTraces = "stage_traces"
	// Live-dataset collections back the streaming subsystem
	// (internal/stream): one state document per registered live
	// dataset and one append-only document per accepted visit batch,
	// so a restarted daemon resumes its streams from the WAL.
	CollLiveDatasets = "live_datasets"
	CollLiveAppends  = "live_appends"
)

// DefaultStageTraceLimit is the default retention cap of stage traces
// per dataset: a busy daemon otherwise accumulates seven-plus traces
// per analysis forever in the one collection nothing evicts, which
// eventually dominates snapshot size and reopen time. 256 traces ≈ the
// last ~25–35 analyses of one dataset.
const DefaultStageTraceLimit = 256

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

// KDB wraps the document store with the six-collection schema.
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

	// traceMu guards traceLimit, the per-dataset stage-trace
	// retention cap enforced at flush time (0 or negative disables
	// eviction).
	traceMu    sync.Mutex
	traceLimit int

	// foldMu guards foldThreshold, the live_appends fold trigger
	// enforced at flush time (0 or negative disables folding).
	foldMu        sync.Mutex
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
	k := &KDB{
		store:         s,
		br:            newBreaker(),
		descCache:     map[string]decodedDescriptor{},
		traceLimit:    DefaultStageTraceLimit,
		foldThreshold: DefaultLiveFoldThreshold,
	}
	configureCollections(s)
	return k, nil
}

// configureCollections applies the K-DB's striping and index layout —
// shared by OpenStore and Follower so a replication follower answers
// the same dataset-scoped queries with the same single-stripe paths.
func configureCollections(s *docstore.Store) {
	// Stripe every collection by its dataset field: concurrent
	// analyses of different datasets then write disjoint shards, and a
	// dataset-scoped FindEq touches a single stripe.
	s.Collection(CollRaw).ShardBy("name")
	for _, name := range []string{
		CollTransformed, CollDescriptors, CollClusterKI,
		CollPatternKI, CollFeedback, CollStageTraces,
		CollLiveDatasets, CollLiveAppends,
	} {
		s.Collection(name).ShardBy("dataset")
	}
	// Equality indexes on the access paths the pipeline uses.
	s.Collection(CollClusterKI).CreateIndex("dataset")
	s.Collection(CollPatternKI).CreateIndex("dataset")
	s.Collection(CollDescriptors).CreateIndex("dataset")
	s.Collection(CollFeedback).CreateIndex("dataset")
	s.Collection(CollFeedback).CreateIndex("item_id")
	s.Collection(CollStageTraces).CreateIndex("dataset")
	s.Collection(CollLiveAppends).CreateIndex("dataset")
}

// Follower wraps a replication follower's store (docstore.Replica) in
// a read-only K-DB: the knowledge read paths — Query, KnowledgeItems,
// SimilarDatasets, the typed accessors — serve from the replicated
// collections, while every write and flush is refused with ErrFollower
// (the store's only writer is the replication apply loop, and
// compaction belongs to the leader). The replica's lifecycle owns the
// store: Close on a follower K-DB is a no-op.
func Follower(s *docstore.Store) *KDB {
	k := &KDB{
		store:         s,
		br:            newBreaker(),
		descCache:     map[string]decodedDescriptor{},
		traceLimit:    DefaultStageTraceLimit,
		foldThreshold: DefaultLiveFoldThreshold,
	}
	k.br.mode = ModeFollower
	setModeGauge(ModeFollower)
	configureCollections(s)
	return k
}

// SetStageTraceLimit caps how many stage traces the K-DB retains per
// dataset: the newest n survive, older ones are evicted during Flush
// (eviction piggybacks on the flush WAL batch, so reopen replays the
// same bounded set). n <= 0 disables eviction. The default is
// DefaultStageTraceLimit.
func (k *KDB) SetStageTraceLimit(n int) {
	k.traceMu.Lock()
	k.traceLimit = n
	k.traceMu.Unlock()
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

// StageTrace is the recorded execution of one pipeline stage: what
// ran, when, for how long, and roughly how much it allocated. The
// stage-graph engine stores one per stage per analysis, so the K-DB
// accumulates a per-dataset performance history alongside the
// knowledge itself.
type StageTrace struct {
	// Dataset is the analyzed log's name.
	Dataset string `json:"dataset"`
	// Stage is the stage name in the pipeline DAG.
	Stage string `json:"stage"`
	// Start / End delimit the stage's wall-clock execution interval;
	// overlapping intervals between stages of one analysis are the
	// direct evidence of concurrent execution.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// WallNanos is End − Start in nanoseconds (denormalized for
	// querying without time parsing).
	WallNanos int64 `json:"wall_ns"`
	// AllocBytes is the process-wide heap-allocation delta observed
	// during the stage: exact under sequential execution, an upper
	// bound when other stages run concurrently.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Sequential records whether the legacy sequential path produced
	// this trace (Config.Sequential), so timings are comparable.
	Sequential bool `json:"sequential"`
	// Attempts counts how many times the stage ran: 1 normally, more
	// when the scheduler's transient-retry policy re-ran it (the
	// trace's interval then spans every attempt including backoff).
	Attempts int `json:"attempts,omitempty"`
}

// Wall returns the stage's wall-clock duration.
func (t StageTrace) Wall() time.Duration { return time.Duration(t.WallNanos) }

// StoreStageTraces appends the traces of one analysis run.
func (k *KDB) StoreStageTraces(traces []StageTrace) error {
	if err := k.br.beforeWrite(); err != nil {
		return err
	}
	err := k.storeStageTraces(traces)
	k.br.afterWrite(err)
	return err
}

// storeStageTraces writes one analysis's traces as one batch: one
// durability wait, not one per trace.
func (k *KDB) storeStageTraces(traces []StageTrace) error {
	coll := k.store.Collection(CollStageTraces)
	b := k.store.Begin()
	defer b.Commit()
	for _, tr := range traces {
		doc, err := toDoc(tr)
		if err != nil {
			return fmt.Errorf("kdb: encoding stage trace %s/%s: %w", tr.Dataset, tr.Stage, err)
		}
		if _, err := b.Insert(coll, doc); err != nil {
			return fmt.Errorf("kdb: storing stage trace %s/%s: %w", tr.Dataset, tr.Stage, err)
		}
	}
	if err := b.Commit(); err != nil {
		return fmt.Errorf("kdb: storing stage traces: %w", err)
	}
	return nil
}

// StageTraces returns stored traces, filtered by dataset when
// datasetName is non-empty, ordered by start time.
func (k *KDB) StageTraces(datasetName string) ([]StageTrace, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	coll := k.store.Collection(CollStageTraces)
	var docs []docstore.Document
	if datasetName == "" {
		docs = coll.Find(nil)
	} else {
		docs = coll.FindEq("dataset", datasetName)
	}
	out := make([]StageTrace, 0, len(docs))
	for _, doc := range docs {
		var tr StageTrace
		if err := fromDoc(doc, &tr); err != nil {
			return nil, fmt.Errorf("kdb: decoding stage trace: %w", err)
		}
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}

// Flush persists the store when it is disk-backed. Flush is the
// breaker's half-open probe point: while read-only it is refused with
// ErrReadOnly until the cooldown elapses, then one flush runs and its
// success closes the breaker.
func (k *KDB) Flush() error {
	if err := k.br.beforeFlush(); err != nil {
		return err
	}
	// Retention runs at flush time so eviction deletes ride the same
	// WAL the flush is about to compact; a failed eviction counts as
	// a flush failure for the breaker. Live-append folding rides the
	// same batch for the same reason.
	err := k.evictStageTraces()
	if err == nil {
		err = k.foldLiveAppends()
	}
	if err == nil {
		err = k.store.Flush()
	}
	k.br.afterFlush(err)
	return err
}

// evictStageTraces drops, per dataset, all but the newest traceLimit
// stage traces (by insertion order — traces of one analysis are
// inserted batch-wise in execution order).
func (k *KDB) evictStageTraces() error {
	k.traceMu.Lock()
	limit := k.traceLimit
	k.traceMu.Unlock()
	if limit <= 0 {
		return nil
	}
	coll := k.store.Collection(CollStageTraces)
	counts := map[string]int{}
	coll.Scan(func(d docstore.Document, _ int64) bool {
		name, _ := d["dataset"].(string)
		counts[name]++
		return true
	})
	b := k.store.Begin()
	defer b.Commit()
	for name, c := range counts {
		if c <= limit {
			continue
		}
		docs := coll.FindEq("dataset", name)
		for _, doc := range docs[:len(docs)-limit] {
			if err := b.Delete(coll, doc.ID()); err != nil {
				return fmt.Errorf("kdb: evicting stage trace of %q: %w", name, err)
			}
		}
	}
	if err := b.Commit(); err != nil {
		return fmt.Errorf("kdb: evicting stage traces: %w", err)
	}
	return nil
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

func fromDoc(d docstore.Document, out any) error {
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// StoreDataset records an original dataset (collection 1). The full
// log is embedded in the document; the returned ID identifies it.
func (k *KDB) StoreDataset(l *dataset.Log) (string, error) {
	if err := k.br.beforeWrite(); err != nil {
		return "", err
	}
	id, err := k.storeDataset(l)
	k.br.afterWrite(err)
	return id, err
}

func (k *KDB) storeDataset(l *dataset.Log) (string, error) {
	doc, err := toDoc(l)
	if err != nil {
		return "", fmt.Errorf("kdb: encoding dataset: %w", err)
	}
	doc["name"] = l.Name
	id, err := k.store.Collection(CollRaw).Insert(doc)
	if err != nil {
		return "", fmt.Errorf("kdb: storing dataset: %w", err)
	}
	return id, nil
}

// Dataset loads a stored dataset by document ID.
func (k *KDB) Dataset(id string) (*dataset.Log, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	doc, ok := k.store.Collection(CollRaw).Get(id)
	if !ok {
		return nil, fmt.Errorf("kdb: no dataset with id %q", id)
	}
	var l dataset.Log
	if err := fromDoc(doc, &l); err != nil {
		return nil, fmt.Errorf("kdb: decoding dataset %q: %w", id, err)
	}
	l.ReindexAfterLoad()
	return &l, nil
}

// TransformedSummary describes a transformed dataset (collection 2):
// the VSM configuration and shape rather than the full matrix, which
// is recomputable from the raw dataset.
type TransformedSummary struct {
	Dataset     string   `json:"dataset"`
	Weighting   string   `json:"weighting"`
	Norm        string   `json:"normalization"`
	NumRows     int      `json:"num_rows"`
	NumFeatures int      `json:"num_features"`
	Sparsity    float64  `json:"sparsity"`
	Features    []string `json:"features"`
}

// StoreTransformed records a transformation summary (collection 2).
func (k *KDB) StoreTransformed(ts TransformedSummary) (string, error) {
	if err := k.br.beforeWrite(); err != nil {
		return "", err
	}
	id, err := k.storeTransformed(ts)
	k.br.afterWrite(err)
	return id, err
}

func (k *KDB) storeTransformed(ts TransformedSummary) (string, error) {
	doc, err := toDoc(ts)
	if err != nil {
		return "", fmt.Errorf("kdb: encoding transformed summary: %w", err)
	}
	return k.store.Collection(CollTransformed).Insert(doc)
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

// KnowledgeItems returns all items of the dataset from both knowledge
// collections (dataset == "" returns everything).
func (k *KDB) KnowledgeItems(datasetName string) ([]knowledge.Item, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	var out []knowledge.Item
	for _, coll := range []*docstore.Collection{
		k.store.Collection(CollClusterKI),
		k.store.Collection(CollPatternKI),
	} {
		var docs []docstore.Document
		if datasetName == "" {
			docs = coll.Find(nil)
		} else {
			docs = coll.FindEq("dataset", datasetName)
		}
		for _, doc := range docs {
			var it knowledge.Item
			if err := fromDoc(doc, &it); err != nil {
				return nil, fmt.Errorf("kdb: decoding knowledge item: %w", err)
			}
			out = append(out, it)
		}
	}
	return out, nil
}

// SetInterest updates the stored interest label of a knowledge item.
func (k *KDB) SetInterest(itemID string, kind knowledge.Kind, interest knowledge.Interest) error {
	if err := k.br.beforeWrite(); err != nil {
		return err
	}
	err := k.setInterest(itemID, kind, interest)
	k.br.afterWrite(err)
	return err
}

func (k *KDB) setInterest(itemID string, kind knowledge.Kind, interest knowledge.Interest) error {
	coll := k.collectionFor(kind)
	doc, ok := coll.Get(itemID)
	if !ok {
		return fmt.Errorf("kdb: no knowledge item %q", itemID)
	}
	doc["interest"] = string(interest)
	return coll.Update(itemID, doc)
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

// FeedbackFor returns feedback entries, filtered by dataset when
// datasetName is non-empty.
func (k *KDB) FeedbackFor(datasetName string) ([]Feedback, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	coll := k.store.Collection(CollFeedback)
	var docs []docstore.Document
	if datasetName == "" {
		docs = coll.Find(nil)
	} else {
		docs = coll.FindEq("dataset", datasetName)
	}
	out := make([]Feedback, 0, len(docs))
	for _, doc := range docs {
		var fb Feedback
		if err := fromDoc(doc, &fb); err != nil {
			return nil, fmt.Errorf("kdb: decoding feedback: %w", err)
		}
		out = append(out, fb)
	}
	return out, nil
}

// TopKnowledge returns up to n knowledge items of a dataset with the
// highest value of the given metric (e.g. "support", "confidence",
// "lift", "size"); items lacking the metric are excluded. It answers
// the navigation layer's "most interesting first" queries directly
// from the K-DB.
func (k *KDB) TopKnowledge(datasetName, metric string, n int) ([]knowledge.Item, error) {
	items, err := k.KnowledgeItems(datasetName)
	if err != nil {
		return nil, err
	}
	withMetric := items[:0]
	for _, it := range items {
		if _, ok := it.Metrics[metric]; ok {
			withMetric = append(withMetric, it)
		}
	}
	sort.SliceStable(withMetric, func(i, j int) bool {
		mi, mj := withMetric[i].Metrics[metric], withMetric[j].Metrics[metric]
		if mi != mj {
			return mi > mj
		}
		return withMetric[i].ID < withMetric[j].ID
	})
	if n > 0 && len(withMetric) > n {
		withMetric = withMetric[:n]
	}
	return withMetric, nil
}

// Counts reports the document count of every collection, in the order
// of the paper's data model.
func (k *KDB) Counts() map[string]int {
	out := map[string]int{}
	for _, name := range []string{
		CollRaw, CollTransformed, CollDescriptors,
		CollClusterKI, CollPatternKI, CollFeedback, CollStageTraces,
		CollLiveDatasets, CollLiveAppends,
	} {
		out[name] = k.store.Collection(name).Count()
	}
	return out
}

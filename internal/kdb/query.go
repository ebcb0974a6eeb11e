package kdb

import (
	"fmt"
	"math"
	"sort"

	"adahealth/internal/docstore"
	"adahealth/internal/stats"
)

// Query is a declarative K-DB lookup: filter/sort/limit over one of
// the store's collections. It is the typed query surface the service
// endpoints and the recall stage share, so ad-hoc navigation and the
// self-learning loop read the knowledge base through one path.
type Query struct {
	// Collection names the target collection (one of the Coll*
	// constants, or any collection present in the store).
	Collection string `json:"collection"`
	// Eq holds field = value constraints (JSON-normalized comparison;
	// an equality on an indexed field answers from the index).
	Eq map[string]any `json:"eq,omitempty"`
	// Gt / Lt hold strict numeric range constraints.
	Gt map[string]float64 `json:"gt,omitempty"`
	Lt map[string]float64 `json:"lt,omitempty"`
	// SortBy orders results by a document field (insertion order when
	// empty); ties break on document ID (see docstore.FindSorted).
	SortBy string `json:"sort_by,omitempty"`
	// Descending flips the sort direction.
	Descending bool `json:"descending,omitempty"`
	// Limit truncates the result (<= 0 returns everything).
	Limit int `json:"limit,omitempty"`
}

// filter compiles the constraint sets into one docstore filter
// (nil when unconstrained).
func (q Query) filter() docstore.Filter {
	var fs []docstore.Filter
	for f, v := range q.Eq {
		fs = append(fs, docstore.Eq(f, v))
	}
	for f, v := range q.Gt {
		fs = append(fs, docstore.Gt(f, v))
	}
	for f, v := range q.Lt {
		fs = append(fs, docstore.Lt(f, v))
	}
	switch len(fs) {
	case 0:
		return nil
	case 1:
		return fs[0]
	default:
		return docstore.And(fs...)
	}
}

// Query runs a declarative lookup and returns matching documents:
// sorted by SortBy when set (deterministic under equal keys), in
// insertion order otherwise. An equality constraint on the dataset
// field routes through the collection's index and shard on both
// paths, so dataset-scoped queries never scan the whole collection
// (stage_traces is unbounded).
func (k *KDB) Query(q Query) ([]docstore.Document, error) {
	if q.Collection == "" {
		return nil, fmt.Errorf("kdb: query without collection")
	}
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	coll := k.store.Collection(q.Collection)
	order := docstore.Asc
	if q.Descending {
		order = docstore.Desc
	}

	ds, hasDataset := q.Eq["dataset"]
	if !hasDataset {
		if q.SortBy != "" {
			return coll.FindSorted(q.filter(), q.SortBy, order, q.Limit), nil
		}
		return truncate(coll.Find(q.filter()), q.Limit), nil
	}

	// Dataset equality: answer from the index/shard, apply the
	// residual constraints on the narrowed set, then sort if asked
	// (FindEq returns insertion order, which is what SortDocuments'
	// tie-breaking contract expects as input order).
	rest := q
	rest.Eq = make(map[string]any, len(q.Eq)-1)
	for f, v := range q.Eq {
		if f != "dataset" {
			rest.Eq[f] = v
		}
	}
	docs := coll.FindEq("dataset", ds)
	f := rest.filter()
	out := docs[:0]
	for _, d := range docs {
		if f == nil || f(d) {
			out = append(out, d)
		}
	}
	if q.SortBy != "" {
		return docstore.SortDocuments(out, q.SortBy, order, q.Limit), nil
	}
	return truncate(out, q.Limit), nil
}

func truncate(docs []docstore.Document, limit int) []docstore.Document {
	if limit > 0 && len(docs) > limit {
		return docs[:limit]
	}
	return docs
}

// DatasetSimilarity is one hit of a descriptor-similarity lookup.
type DatasetSimilarity struct {
	// Dataset is the similar dataset's name.
	Dataset string `json:"dataset"`
	// Similarity is 1 − the mean relative difference of the descriptor
	// features: 1 for identical statistics, towards 0 as scale or
	// distribution shape diverges.
	Similarity float64 `json:"similarity"`
	// Descriptor is the stored descriptor the score was computed on
	// (the latest-scoring one when a dataset has several).
	Descriptor stats.Descriptor `json:"-"`
	// DocID identifies the matched descriptor document.
	DocID string `json:"doc_id,omitempty"`
}

// descriptorVector projects a descriptor onto the non-negative feature
// vector similarity is computed over: dataset scale, per-patient and
// per-visit load, and the distribution-shape statistics the partial
// miner pivots on.
func descriptorVector(d stats.Descriptor) []float64 {
	return []float64{
		float64(d.NumPatients),
		float64(d.NumRecords),
		float64(d.NumExamTypes),
		float64(d.NumVisits),
		d.RecordsPerPatient.Mean,
		d.ExamsPerVisit.Mean,
		d.Age.Mean,
		d.VSMSparsity,
		d.FrequencyEntropyNorm,
		d.FrequencyGini,
		d.Top20Coverage,
		d.Top40Coverage,
	}
}

// DescriptorSimilarity scores two descriptors in [0, 1]: one minus the
// mean relative difference over the descriptor feature vector. The
// measure is scale-free per feature (6k vs 300 patients costs the same
// as 0.6 vs 0.03 sparsity) and 1 exactly when every statistic matches.
func DescriptorSimilarity(a, b stats.Descriptor) float64 {
	av, bv := descriptorVector(a), descriptorVector(b)
	sum := 0.0
	for i := range av {
		x, y := av[i], bv[i]
		m := math.Max(math.Abs(x), math.Abs(y))
		if m == 0 {
			continue // both zero: identical, costs nothing
		}
		sum += math.Abs(x-y) / m
	}
	return 1 - sum/float64(len(av))
}

// LatestDescriptor returns the most recently stored descriptor of a
// dataset and its document ID (false when the dataset has none).
func (k *KDB) LatestDescriptor(datasetName string) (stats.Descriptor, string, bool) {
	if k.br.beforeRead() != nil {
		return stats.Descriptor{}, "", false
	}
	docs := k.store.Collection(CollDescriptors).FindEq("dataset", datasetName)
	if len(docs) == 0 {
		return stats.Descriptor{}, "", false
	}
	doc := docs[len(docs)-1] // insertion order: last is newest
	var d stats.Descriptor
	if err := fromDoc(doc, &d); err != nil {
		return stats.Descriptor{}, "", false
	}
	return d, doc.ID(), true
}

// SimilarDatasets ranks stored descriptors by similarity to target,
// returning up to limit hits (every dataset at most once, scored by
// its best-matching descriptor). excludeDocID drops one specific
// descriptor document — the caller's own, just-stored one — so an
// analysis never "recalls" itself; earlier descriptors of the same
// dataset name still match, which is what makes a repeat analysis
// warm-startable. Results order by descending similarity, ties by
// dataset name.
func (k *KDB) SimilarDatasets(target stats.Descriptor, excludeDocID string, limit int) ([]DatasetSimilarity, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	best := map[string]DatasetSimilarity{}
	for _, dd := range k.decodedDescriptors() {
		// An undecodable descriptor must not brick every future recall
		// on this K-DB; skip it (and the nameless ones nothing can ask
		// for).
		if dd.err != nil || dd.desc.DatasetName == "" || (excludeDocID != "" && dd.id == excludeDocID) {
			continue
		}
		sim := DescriptorSimilarity(target, dd.desc)
		// The doc-ID tie-break keeps the reported match deterministic
		// when a dataset's descriptors score equally.
		if cur, ok := best[dd.desc.DatasetName]; !ok || sim > cur.Similarity ||
			(sim == cur.Similarity && dd.id < cur.DocID) {
			best[dd.desc.DatasetName] = DatasetSimilarity{
				Dataset:    dd.desc.DatasetName,
				Similarity: sim,
				Descriptor: dd.desc,
				DocID:      dd.id,
			}
		}
	}
	out := make([]DatasetSimilarity, 0, len(best))
	for _, hit := range best {
		out = append(out, hit)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Dataset < out[j].Dataset
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

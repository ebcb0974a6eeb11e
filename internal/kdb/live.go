package kdb

import (
	"fmt"
	"sort"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/stats"
)

// LiveDatasetState is the durable control record of one streaming
// dataset (collection live_datasets, one upserted document per
// dataset): the applied and modelled revisions, the online model's
// centroids in their feature space, the drift baseline the detector
// compares against, and the last completed full analysis. The visit
// data itself is not here — it is the ordered batch documents of
// live_appends, which recovery replays; trusting the batches (not
// this record's Revision) is what makes restart lossless even when a
// crash lands between an acknowledged append and the state upsert.
type LiveDatasetState struct {
	Dataset string `json:"dataset"`
	// Revision is the last applied append revision at the time the
	// state was written (the initial registration is revision 1).
	Revision int `json:"revision"`
	// ModelRevision is the revision the online model reflects.
	ModelRevision int `json:"model_revision"`
	// Centroids/Features are the live mini-batch model, labelled by
	// exam code so it can be remapped across feature reorderings.
	Centroids [][]float64 `json:"centroids,omitempty"`
	Features  []string    `json:"features,omitempty"`
	// Baseline is the descriptor of the last fully analyzed state —
	// the drift detector's reference point.
	Baseline *stats.Descriptor `json:"baseline,omitempty"`
	// Drift is the last computed drift gauge against Baseline.
	Drift float64 `json:"drift"`
	// LastAnalysis is the service job ID of the last completed full
	// re-analysis ("" before the first).
	LastAnalysis string `json:"last_analysis,omitempty"`
}

// LiveBatch is one accepted visit batch (collection live_appends,
// append-only): the registration batch is revision 1, every accepted
// append increments the revision by one. Replaying a dataset's batches
// in revision order reconstructs the accumulated log exactly.
//
// A batch with FoldedFrom > 0 is a fold: the concatenation, in
// revision order, of revisions [FoldedFrom..Revision], produced at
// flush time once enough batches are already reflected in the control
// record's revision (see Flush). Replaying a fold is equivalent to
// replaying its constituents one by one — batch contents are disjoint
// by construction (duplicate exam codes and patient IDs are rejected
// at append time) and the apply path registers exams, then patients,
// then records, which concatenation preserves.
type LiveBatch struct {
	Dataset  string             `json:"dataset"`
	Revision int                `json:"revision"`
	Exams    []dataset.ExamType `json:"exams,omitempty"`
	Patients []dataset.Patient  `json:"patients,omitempty"`
	Records  []dataset.Record   `json:"records,omitempty"`
	// FoldedFrom marks a fold covering revisions [FoldedFrom..Revision]
	// (0 = an ordinary single-revision batch).
	FoldedFrom int `json:"folded_from,omitempty"`
}

func liveStateID(name string) string { return "live:" + name }

// StoreLiveDataset upserts the control record of a live dataset.
func (k *KDB) StoreLiveDataset(st LiveDatasetState) error {
	if err := k.br.beforeWrite(); err != nil {
		return err
	}
	err := k.storeLiveDataset(st)
	k.br.afterWrite(err)
	return err
}

func (k *KDB) storeLiveDataset(st LiveDatasetState) error {
	doc, err := toDoc(st)
	if err != nil {
		return fmt.Errorf("kdb: encoding live dataset %q: %w", st.Dataset, err)
	}
	doc["_id"] = liveStateID(st.Dataset)
	coll := k.store.Collection(CollLiveDatasets)
	if _, exists := coll.Get(doc.ID()); exists {
		if err := coll.Update(doc.ID(), doc); err != nil {
			return fmt.Errorf("kdb: updating live dataset %q: %w", st.Dataset, err)
		}
		return nil
	}
	if _, err := coll.Insert(doc); err != nil {
		return fmt.Errorf("kdb: storing live dataset %q: %w", st.Dataset, err)
	}
	return nil
}

// LiveDataset loads one live dataset's control record; ok is false
// when the dataset is not registered.
func (k *KDB) LiveDataset(name string) (LiveDatasetState, bool, error) {
	if err := k.br.beforeRead(); err != nil {
		return LiveDatasetState{}, false, err
	}
	doc, ok := k.store.Collection(CollLiveDatasets).Get(liveStateID(name))
	if !ok {
		return LiveDatasetState{}, false, nil
	}
	var st LiveDatasetState
	if err := fromDoc(doc, &st); err != nil {
		return LiveDatasetState{}, false, fmt.Errorf("kdb: decoding live dataset %q: %w", name, err)
	}
	return st, true, nil
}

// LiveDatasets returns every registered live dataset's control record,
// sorted by dataset name.
func (k *KDB) LiveDatasets() ([]LiveDatasetState, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	docs := k.store.Collection(CollLiveDatasets).Find(nil)
	out := make([]LiveDatasetState, 0, len(docs))
	for _, doc := range docs {
		var st LiveDatasetState
		if err := fromDoc(doc, &st); err != nil {
			return nil, fmt.Errorf("kdb: decoding live dataset: %w", err)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out, nil
}

// AppendLiveBatch durably records one accepted visit batch. The write
// is acknowledged on the WAL before the streaming layer acknowledges
// the append to the client — the append's durability point.
func (k *KDB) AppendLiveBatch(b LiveBatch) error {
	if err := k.br.beforeWrite(); err != nil {
		return err
	}
	err := k.appendLiveBatch(b)
	k.br.afterWrite(err)
	return err
}

func (k *KDB) appendLiveBatch(b LiveBatch) error {
	doc, err := toDoc(b)
	if err != nil {
		return fmt.Errorf("kdb: encoding live batch %s@%d: %w", b.Dataset, b.Revision, err)
	}
	if _, err := k.store.Collection(CollLiveAppends).Insert(doc); err != nil {
		return fmt.Errorf("kdb: storing live batch %s@%d: %w", b.Dataset, b.Revision, err)
	}
	return nil
}

// LiveBatches returns a dataset's accepted batches in revision order,
// fold-aware: when folds exist (flush-time compaction of the append
// history), the highest-revision fold replaces everything it covers
// and only later single-revision batches follow it. Stale documents a
// crash mid-fold left behind — originals a fold already covers, or a
// superseded older fold — are skipped, so replay never applies a
// revision twice.
func (k *KDB) LiveBatches(name string) ([]LiveBatch, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	docs := k.store.Collection(CollLiveAppends).FindEq("dataset", name)
	all := make([]LiveBatch, 0, len(docs))
	var best *LiveBatch // the fold covering the longest prefix
	for _, doc := range docs {
		var b LiveBatch
		if err := fromDoc(doc, &b); err != nil {
			return nil, fmt.Errorf("kdb: decoding live batch of %q: %w", name, err)
		}
		all = append(all, b)
		if b.FoldedFrom > 0 && (best == nil || b.Revision > best.Revision) {
			cp := b
			best = &cp
		}
	}
	out := make([]LiveBatch, 0, len(all))
	if best != nil {
		out = append(out, *best)
	}
	for _, b := range all {
		if b.FoldedFrom > 0 {
			continue // folds other than best are superseded
		}
		if best != nil && b.Revision <= best.Revision {
			continue // covered by the fold (a crash-leftover original)
		}
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Revision < out[j].Revision })
	return out, nil
}

// DefaultLiveFoldThreshold is how many fold-eligible live_appends
// documents a dataset accumulates before Flush folds them into one
// snapshot batch. Folding every flush would churn the WAL for nothing;
// waiting forever makes restart replay O(lifetime) — 32 keeps replay
// cost O(lag) at roughly one fold per few dozen appends.
const DefaultLiveFoldThreshold = 32

// SetLiveFoldThreshold overrides how many eligible batches trigger a
// flush-time fold (n <= 0 disables folding).
func (k *KDB) SetLiveFoldThreshold(n int) {
	k.foldMu.Lock()
	k.foldThreshold = n
	k.foldMu.Unlock()
}

// foldLiveAppends compacts, per live dataset, every batch the control
// record's revision already reflects into a single fold document —
// the live_appends analogue of stage-trace eviction, bounding restart
// replay to the fold plus the un-reflected tail. Only revisions <= the
// control revision fold: a batch past it could still be ahead of a
// control record whose upsert lagged a crash, and recovery must see it
// individually. The new fold is logged before the deletes of the
// documents it covers, and LiveBatches tolerates the overlap, so a
// crash at any point between the frames replays correctly.
func (k *KDB) foldLiveAppends() error {
	k.foldMu.Lock()
	limit := k.foldThreshold
	k.foldMu.Unlock()
	if limit <= 0 {
		return nil
	}
	states, err := k.liveStatesUnguarded()
	if err != nil {
		return err
	}
	coll := k.store.Collection(CollLiveAppends)
	for _, st := range states {
		docs := coll.FindEq("dataset", st.Dataset)
		type stored struct {
			id string
			b  LiveBatch
		}
		eligible := make([]stored, 0, len(docs))
		var best *LiveBatch
		for _, doc := range docs {
			var b LiveBatch
			if err := fromDoc(doc, &b); err != nil {
				return fmt.Errorf("kdb: decoding live batch of %q: %w", st.Dataset, err)
			}
			if b.Revision > st.Revision {
				continue
			}
			eligible = append(eligible, stored{id: doc.ID(), b: b})
			if b.FoldedFrom > 0 && (best == nil || b.Revision > best.Revision) {
				cp := b
				best = &cp
			}
		}
		if len(eligible) < limit {
			continue
		}
		// Merge: the longest fold's contents, then every uncovered
		// single-revision batch in revision order.
		var tail []LiveBatch
		for _, e := range eligible {
			if e.b.FoldedFrom > 0 {
				continue
			}
			if best != nil && e.b.Revision <= best.Revision {
				continue
			}
			tail = append(tail, e.b)
		}
		sort.SliceStable(tail, func(i, j int) bool { return tail[i].Revision < tail[j].Revision })
		merged := LiveBatch{Dataset: st.Dataset}
		if best != nil {
			merged = *best
		} else if len(tail) > 0 {
			merged.FoldedFrom = tail[0].Revision
			merged.Revision = tail[0].Revision - 1 // extended below
		}
		for _, b := range tail {
			merged.Exams = append(merged.Exams, b.Exams...)
			merged.Patients = append(merged.Patients, b.Patients...)
			merged.Records = append(merged.Records, b.Records...)
			merged.Revision = b.Revision
		}
		if merged.FoldedFrom == 0 || merged.Revision < merged.FoldedFrom {
			continue // nothing meaningful to fold
		}
		doc, err := toDoc(merged)
		if err != nil {
			return fmt.Errorf("kdb: encoding live fold %s@%d: %w", st.Dataset, merged.Revision, err)
		}
		covered := make([]string, len(eligible))
		for i, e := range eligible {
			covered[i] = e.id
		}
		if err := k.writeFold(coll, doc, covered); err != nil {
			return fmt.Errorf("kdb: folding live batches of %s up to @%d: %w", st.Dataset, merged.Revision, err)
		}
	}
	return nil
}

// writeFold writes one fold and retires the documents it covers as
// one batch. The fold's frame goes first, so any prefix of the batch a
// crash leaves in the log that holds a delete also holds the fold.
func (k *KDB) writeFold(coll *docstore.Collection, fold docstore.Document, covered []string) error {
	b := k.store.Begin()
	defer b.Commit()
	if _, err := b.Insert(coll, fold); err != nil {
		return err
	}
	for _, id := range covered {
		if err := b.Delete(coll, id); err != nil {
			return err
		}
	}
	return b.Commit()
}

// liveStatesUnguarded reads every control record without the breaker
// gate — it runs inside Flush, which already passed beforeFlush.
func (k *KDB) liveStatesUnguarded() ([]LiveDatasetState, error) {
	docs := k.store.Collection(CollLiveDatasets).Find(nil)
	out := make([]LiveDatasetState, 0, len(docs))
	for _, doc := range docs {
		var st LiveDatasetState
		if err := fromDoc(doc, &st); err != nil {
			return nil, fmt.Errorf("kdb: decoding live dataset: %w", err)
		}
		out = append(out, st)
	}
	return out, nil
}

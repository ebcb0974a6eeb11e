package kdb

import (
	"fmt"
	"sort"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/stats"
)

// LiveDatasetState is the durable control record of one streaming
// dataset (collection live_datasets, one upserted document each): the
// applied revision, the drift baseline and gauge, and the last full
// analysis. The visit data is the batches of live_appends, which
// recovery replays — trusting them, not Revision, keeps a restart
// lossless when a crash lands between an acked append and the upsert.
// Fields older builds wrote (model_revision, centroids, features) are
// ignored.
type LiveDatasetState struct {
	Dataset string `json:"dataset"`
	// Revision is the last applied append revision at the time the
	// state was written (the initial registration is revision 1).
	Revision int `json:"revision"`
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

// StoreLiveDataset upserts the control record of a live dataset: one
// upsert, so the store decides insert-or-replace in one step and no
// concurrent writer interleaves.
func (k *KDB) StoreLiveDataset(st LiveDatasetState) error {
	return k.br.write(func() error {
		if _, err := k.store.Collection(CollLiveDatasets).Upsert(struct {
			ID string `json:"_id"`
			LiveDatasetState
		}{liveStateID(st.Dataset), st}); err != nil {
			return fmt.Errorf("kdb: storing live dataset %q: %w", st.Dataset, err)
		}
		return nil
	})
}

// LiveDatasets returns every registered live dataset's control record,
// sorted by dataset name.
func (k *KDB) LiveDatasets() ([]LiveDatasetState, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	out, err := k.liveStatesUnguarded()
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out, nil
}

// AppendLiveBatch durably records one accepted visit batch. The write
// is acknowledged on the WAL before the streaming layer acknowledges
// the append to the client — the append's durability point.
func (k *KDB) AppendLiveBatch(b LiveBatch) error {
	return k.br.write(func() error {
		if _, err := k.store.Collection(CollLiveAppends).Insert(b); err != nil {
			return fmt.Errorf("kdb: storing live batch %s@%d: %w", b.Dataset, b.Revision, err)
		}
		return nil
	})
}

// LiveBatches returns what replaying a dataset applies, in revision
// order (see replayOrder): never a revision twice.
func (k *KDB) LiveBatches(name string) ([]LiveBatch, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	all, err := decodeAll[LiveBatch](inScope(k.store.Collection(CollLiveAppends), name, nil), "live batch of "+name)
	if err != nil {
		return nil, err
	}
	return replayOrder(all), nil
}

// replayOrder picks, from a dataset's batch documents, what replay
// applies, in revision order: the fold covering the longest prefix,
// then every single-revision batch past it. Older folds and the
// originals a fold covers, which a crash mid-fold leaves, are skipped.
func replayOrder(all []LiveBatch) []LiveBatch {
	var best *LiveBatch
	for i, b := range all {
		if b.FoldedFrom > 0 && (best == nil || b.Revision > best.Revision) {
			best = &all[i]
		}
	}
	out := make([]LiveBatch, 0, len(all))
	if best != nil {
		out = append(out, *best)
	}
	for _, b := range all {
		if b.FoldedFrom == 0 && (best == nil || b.Revision > best.Revision) {
			out = append(out, b)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Revision < out[j].Revision })
	return out
}

// DefaultLiveFoldThreshold is how many fold-eligible live_appends
// documents a dataset accumulates before Flush folds them into one
// snapshot batch. Folding every flush would churn the WAL for nothing;
// waiting forever makes restart replay O(lifetime) — 32 keeps replay
// cost O(lag) at roughly one fold per few dozen appends.
const DefaultLiveFoldThreshold = 32

// foldLiveAppends compacts, per live dataset, every batch the control
// record's revision already reflects into a single fold document,
// bounding restart replay to the fold plus the un-reflected tail. A
// dataset with fewer batches than the threshold is skipped undecoded.
// Only revisions <= the control revision fold: a batch past it could
// still be ahead of a control record whose upsert lagged a crash, and
// recovery must see it individually. The new fold is logged before the
// deletes of the documents it covers, and LiveBatches tolerates the
// overlap, so a crash at any point between the frames replays
// correctly.
func (k *KDB) foldLiveAppends() error {
	if k.foldThreshold <= 0 {
		return nil
	}
	states, err := k.liveStatesUnguarded()
	if err != nil {
		return err
	}
	coll := k.store.Collection(CollLiveAppends)
	for _, st := range states {
		// The eligible batches are some of the dataset's batches, so
		// fewer batches than the threshold cannot fold: count them
		// through the index, uncopied, before decoding any.
		n := 0
		coll.WalkEq("dataset", st.Dataset, func(docstore.Doc, int64) bool {
			n++
			return n < k.foldThreshold
		})
		if n < k.foldThreshold {
			continue
		}
		var (
			eligible []LiveBatch
			covered  []string
		)
		for _, doc := range inScope(coll, st.Dataset, nil) {
			var b LiveBatch
			if err := decode(doc, &b); err != nil {
				return fmt.Errorf("kdb: decoding live batch of %q: %w", st.Dataset, err)
			}
			if b.Revision <= st.Revision {
				eligible, covered = append(eligible, b), append(covered, doc.ID())
			}
		}
		if len(eligible) < k.foldThreshold {
			continue
		}
		// Merge: the longest fold's contents (or the first batch's),
		// then every later single-revision batch in revision order.
		seq := replayOrder(eligible)
		merged := seq[0]
		if merged.FoldedFrom == 0 {
			merged.FoldedFrom = merged.Revision
		}
		for _, b := range seq[1:] {
			merged.Exams = append(merged.Exams, b.Exams...)
			merged.Patients = append(merged.Patients, b.Patients...)
			merged.Records = append(merged.Records, b.Records...)
			merged.Revision = b.Revision
		}
		if err := k.writeFold(coll, merged, covered); err != nil {
			return fmt.Errorf("kdb: folding live batches of %s up to @%d: %w", st.Dataset, merged.Revision, err)
		}
	}
	return nil
}

// writeFold writes one fold and retires the documents it covers as
// one batch. The fold's frame goes first, so any prefix of the batch a
// crash leaves in the log that holds a delete also holds the fold.
func (k *KDB) writeFold(coll *docstore.Collection, fold LiveBatch, covered []string) error {
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

// liveStatesUnguarded reads every control record, in insertion order,
// without the breaker gate: Flush's fold calls it after beforeFlush,
// and LiveDatasets after beforeRead.
func (k *KDB) liveStatesUnguarded() ([]LiveDatasetState, error) {
	return decodeAll[LiveDatasetState](inScope(k.store.Collection(CollLiveDatasets), "", nil), "live dataset")
}

package kdb

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/stats"
)

// LiveBatch is one accepted visit batch (collection live_appends,
// append-only): the registration batch is revision 1, every accepted
// append increments the revision by one. Replaying a dataset's batches
// in revision order reconstructs the accumulated log exactly.
//
// A batch with FoldedFrom > 0 is a fold: the concatenation, in
// revision order, of revisions [FoldedFrom..Revision], which earlier
// builds wrote at flush time in place of the batches it covers. This
// build writes none, and replays those it finds: replaying a fold is
// equivalent to replaying its constituents one by one, since batch
// contents are disjoint (duplicate exam codes and patient IDs are
// rejected at append time) and the apply path registers exams, then
// patients, then records, which concatenation preserves.
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

// LiveDatasets returns the sorted names of the live datasets: those
// with a batch in live_appends, each read for its dataset name only.
func (k *KDB) LiveDatasets() ([]string, error) {
	if err := k.br.beforeRead(); err != nil {
		return nil, err
	}
	var names []string
	k.store.Collection(CollLiveAppends).Scan(func(d docstore.Doc, _ int64) bool {
		v, _ := d.Field("dataset").Scalar()
		if name, ok := v.(string); ok {
			names = append(names, name)
		}
		return true
	})
	slices.Sort(names)
	return slices.Compact(names), nil
}

// RegisterLiveDataset records a live dataset's registration as one
// commit: d, the descriptor of its revision-1 log, then b, its
// revision-1 batch, so a crash's recovered prefix that holds the batch
// holds the descriptor too.
func (k *KDB) RegisterLiveDataset(d stats.Descriptor, b LiveBatch) error {
	return k.commit(fmt.Sprintf("registration of live dataset %q", b.Dataset), func(bt *docstore.Batch) error {
		if err := k.putDescriptor(bt, d); err != nil {
			return err
		}
		_, err := bt.Upsert(k.store.Collection(CollLiveAppends), b)
		return err
	})
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
	return replayOrder(all)
}

// replayOrder picks, from a dataset's batch documents in insertion
// order, what replay applies, in revision order: the fold covering the
// longest prefix, then every single-revision batch past it. Older folds
// and the originals a fold covers, which a crash in an earlier build's
// fold left, are skipped. So is a later copy of a revision equal to the
// first-inserted one (only its generated _id differs), which a failed
// registration in an earlier build could leave; a later copy that
// differs fails, since which of the two was acknowledged is unknown.
func replayOrder(all []LiveBatch) ([]LiveBatch, error) {
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
	first := make(map[int]int, len(all)) // revision → its batch in out
	for _, b := range all {
		if b.FoldedFrom > 0 || best != nil && b.Revision <= best.Revision {
			continue
		}
		if i, ok := first[b.Revision]; ok {
			if !reflect.DeepEqual(out[i], b) {
				return nil, fmt.Errorf("kdb: live dataset %q holds two different batches of revision %d", b.Dataset, b.Revision)
			}
			continue
		}
		first[b.Revision] = len(out)
		out = append(out, b)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Revision < out[j].Revision })
	return out, nil
}

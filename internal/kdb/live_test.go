package kdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/stats"
)

// TestLiveStateRoundTrip: the control record upserts by dataset and
// survives a close/reopen cycle (WAL recovery of the new collection).
func TestLiveStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := LiveDatasetState{
		Dataset:  "ward-a",
		Baseline: &stats.Descriptor{DatasetName: "ward-a", NumPatients: 10},
	}
	if err := k.StoreLiveDataset(st); err != nil {
		t.Fatal(err)
	}
	st.Baseline = &stats.Descriptor{DatasetName: "ward-a", NumPatients: 11}
	if err := k.StoreLiveDataset(st); err != nil { // upsert, not duplicate
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	all, err := re.LiveDatasets()
	if err != nil || len(all) != 1 {
		t.Fatalf("LiveDatasets after reopen = %d records, err %v; want 1", len(all), err)
	}
	if !reflect.DeepEqual(st, all[0]) {
		t.Errorf("reloaded state differs:\nwant %+v\ngot  %+v", st, all[0])
	}
}

// TestLiveBatchesOrderedReplay: batches come back in revision order
// regardless of interleaved inserts across datasets, and survive
// reopen.
func TestLiveBatchesOrderedReplay(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for rev := 1; rev <= 4; rev++ {
		for _, name := range []string{"ward-a", "ward-b"} {
			b := LiveBatch{
				Dataset:  name,
				Revision: rev,
				Records: []dataset.Record{{
					PatientID: "P1", ExamCode: "EX001", Date: day.AddDate(0, 0, rev),
				}},
			}
			if rev == 1 {
				b.Exams = []dataset.ExamType{{Code: "EX001"}}
				b.Patients = []dataset.Patient{{ID: "P1", Age: 30}}
			}
			if err := k.AppendLiveBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	batches, err := re.LiveBatches("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 {
		t.Fatalf("replayed %d batches, want 4", len(batches))
	}
	for i, b := range batches {
		if b.Revision != i+1 {
			t.Errorf("batch %d has revision %d, want %d", i, b.Revision, i+1)
		}
		if b.Dataset != "ward-a" {
			t.Errorf("batch %d leaked from dataset %q", i, b.Dataset)
		}
	}
}

// foldBatch builds one single-revision batch: revision 1 registers the
// exam and patient namespaces, later revisions append disjoint records.
func foldBatch(ds string, rev int) LiveBatch {
	day := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	b := LiveBatch{
		Dataset:  ds,
		Revision: rev,
		Exams:    []dataset.ExamType{{Code: fmt.Sprintf("EX%03d", rev)}},
		Patients: []dataset.Patient{{ID: fmt.Sprintf("P%03d", rev), Age: 20 + rev}},
		Records: []dataset.Record{{
			PatientID: fmt.Sprintf("P%03d", rev),
			ExamCode:  fmt.Sprintf("EX%03d", rev),
			Date:      day.AddDate(0, 0, rev),
		}},
	}
	return b
}

// flattenBatches concatenates the replay stream — what the streaming
// recovery path would apply, in order.
func flattenBatches(batches []LiveBatch) ([]dataset.ExamType, []dataset.Patient, []dataset.Record) {
	var exams []dataset.ExamType
	var patients []dataset.Patient
	var records []dataset.Record
	for _, b := range batches {
		exams = append(exams, b.Exams...)
		patients = append(patients, b.Patients...)
		records = append(records, b.Records...)
	}
	return exams, patients, records
}

// TestLiveFoldCrashLeftoversSkipped: a crash between inserting the fold
// and deleting its constituents leaves both on disk; LiveBatches must
// replay each revision exactly once.
func TestLiveFoldCrashLeftoversSkipped(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	for rev := 1; rev <= 4; rev++ {
		if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash leftover: a durable fold of [1..3] alongside
	// the originals it covers.
	fold := foldBatch("w", 1)
	f2, f3 := foldBatch("w", 2), foldBatch("w", 3)
	fold.Exams = append(fold.Exams, append(f2.Exams, f3.Exams...)...)
	fold.Patients = append(fold.Patients, append(f2.Patients, f3.Patients...)...)
	fold.Records = append(fold.Records, append(f2.Records, f3.Records...)...)
	fold.Revision, fold.FoldedFrom = 3, 1
	if err := k.AppendLiveBatch(fold); err != nil {
		t.Fatal(err)
	}

	batches, err := k.LiveBatches("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (fold + rev 4)", len(batches))
	}
	_, _, records := flattenBatches(batches)
	seen := map[string]bool{}
	for _, r := range records {
		if seen[r.ExamCode] {
			t.Fatalf("revision of %s replayed twice despite crash leftovers", r.ExamCode)
		}
		seen[r.ExamCode] = true
	}
	if len(records) != 4 {
		t.Errorf("replayed %d records, want 4", len(records))
	}
}

// TestLiveDuplicateRevisions: a later batch equal to a revision's first
// one is skipped, and a later batch that differs fails the read, naming
// the dataset and the revision.
func TestLiveDuplicateRevisions(t *testing.T) {
	k, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	for _, rev := range []int{1, 2, 2} {
		if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
			t.Fatal(err)
		}
	}
	batches, err := k.LiveBatches("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0].Revision != 1 || batches[1].Revision != 2 {
		t.Fatalf("got %+v, want revisions 1 and 2 once each", batches)
	}

	other := foldBatch("w", 2)
	other.Records[0].Date = other.Records[0].Date.AddDate(0, 0, 1)
	if err := k.AppendLiveBatch(other); err != nil {
		t.Fatal(err)
	}
	if _, err := k.LiveBatches("w"); err == nil || !strings.Contains(err.Error(), `"w"`) || !strings.Contains(err.Error(), "revision 2") {
		t.Fatalf("unequal duplicate: err %v, want one naming the dataset and revision 2", err)
	}
}

// TestLiveFlushBelowThresholdAllocsFlat: a flush decodes none of the
// live datasets' batches and rewrites none of them, so it allocates the
// same however many batches they hold and however large those are.
func TestLiveFlushBelowThresholdAllocsFlat(t *testing.T) {
	flushAllocs := func(batches, records int) float64 {
		k, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		for _, ds := range []string{"ward-a", "ward-b"} {
			for rev := 1; rev <= batches; rev++ {
				b := foldBatch(ds, rev)
				for len(b.Records) < records {
					b.Records = append(b.Records, b.Records[0])
				}
				if err := k.AppendLiveBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.StoreLiveDataset(LiveDatasetState{Dataset: ds}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := k.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if n := k.Store().Collection(CollLiveAppends).Count(); n != 2*batches {
			t.Fatalf("live_appends holds %d docs after the flush, want %d: something folded", n, 2*batches)
		}
		return allocs
	}
	small := flushAllocs(2, 1)
	large := flushAllocs(31, 200)
	if small != large {
		t.Errorf("a flush allocates %v times over 2 one-record batches per dataset but %v over %d of 200 records",
			small, large, 31)
	}
}

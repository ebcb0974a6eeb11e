package kdb

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/obs"
	"adahealth/internal/stats"
)

// TestLiveStateRoundTrip: a registration is one WAL commit of two
// frames, the descriptor of the revision-1 log before the revision-1
// batch, and both survive a close/reopen cycle: LiveDatasets names the
// dataset by its batch, and its descriptor is the newest under its
// name.
func TestLiveStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	desc := stats.Descriptor{DatasetName: "ward-a", NumPatients: 10}
	batch := foldBatch("ward-a", 1)
	commits := func() float64 { return obs.Default().Value("docstore_wal_commit_seconds") }
	before, commits0 := k.Store().ReplStatus(), commits()
	if err := k.RegisterLiveDataset(desc, batch); err != nil {
		t.Fatal(err)
	}
	if frames, n := k.Store().ReplStatus().Frames-before.Frames, commits()-commits0; frames != 2 || n != 1 {
		t.Fatalf("registration wrote %d frames in %v WAL commits, want 2 in 1", frames, n)
	}
	r, err := k.Store().WALReader()
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := r.Read(before.Epoch, before.Offset, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if d, b := bytes.Index(raw, []byte(`"c":"descriptors"`)), bytes.Index(raw, []byte(`"c":"live_appends"`)); d < 0 || b < d {
		t.Fatalf("registration frames: descriptor at %d, batch at %d; want the descriptor first", d, b)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	names, err := re.LiveDatasets()
	if err != nil || !reflect.DeepEqual(names, []string{"ward-a"}) {
		t.Fatalf("LiveDatasets after reopen = %v, err %v; want [ward-a]", names, err)
	}
	if got, _, ok := re.LatestDescriptor("ward-a"); !ok || !reflect.DeepEqual(got, desc) {
		t.Errorf("reloaded descriptor = %+v (found %v), want %+v", got, ok, desc)
	}
	if got, err := re.LiveBatches("ward-a"); err != nil || !reflect.DeepEqual(got, []LiveBatch{batch}) {
		t.Errorf("reloaded batches = %+v, err %v; want [%+v]", got, err, batch)
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
